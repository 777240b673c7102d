#!/usr/bin/env python3
"""Finite-difference checks of the adjoint gradient and the Hessian-vector
product on the benchmark.

Usage: python3 scripts/check_derivatives.py [level [directions [seed]]]
(defaults: those of the config file's [verify] section)
"""

import sys

from ssnbilinear import benchmark_instance, format_verification, verify_derivatives
from ssnbilinear.verification import VerifySettings


def main(argv):
    settings = VerifySettings(*(int(tok) for tok in argv))
    result = verify_derivatives(
        benchmark_instance(),
        level=settings.level,
        directions=settings.directions,
        seed=settings.seed,
    )
    print(format_verification(result))
    return 0 if result.passed else 3


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
