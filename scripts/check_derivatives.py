#!/usr/bin/env python3
"""Finite-difference checks of the adjoint gradient and the Hessian-vector
product on the benchmark.

Usage: python3 scripts/check_derivatives.py [level [directions [seed]]]
(defaults: those of the config file's [verify] section)
Exit codes as for `ssnbilinear verify`: 0 pass, 1 bad arguments, 3 fail.
"""

import sys

from ssnbilinear import ConfigurationError, benchmark_instance, verify_derivatives
from ssnbilinear.verification import VerifySettings, format_verification


def main(argv):
    try:
        settings = VerifySettings(*(int(tok) for tok in argv))
    except (ConfigurationError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = verify_derivatives(benchmark_instance(), settings)
    print(format_verification(result))
    return 0 if result.passed else 3


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
