"""Dense desk-scale certificates for the preconditioned spectrum.

At small sizes the spectrum of the symmetrized preconditioned block
operator can be computed densely: it is plus and minus the singular values
of one complex n^2-by-n^2 matrix.  The certificate compares every eigenvalue
against the closed-form interval for the active branch: for alpha >= 0
the interval is [1/mu0, mu0] in magnitude with mu0 = sqrt(2 a_max/a_min);
for alpha < 0 a sharper tilde interval applies whenever a set of sign
conditions holds.  The JSON payloads printed here are exactly what the
command line program's verify subcommand emits.
"""

import json

from abslap.bench import coefficient_from_spec
from abslap.grid import GridSpec
from abslap.saddle import Shift
from abslap.spectral import certificate_blocks, certificate_payload, verify_spectrum

SHIFTS = ((100.0, 100.0), (1.0, -100.0), (-100.0, 100.0), (-600.0, 150.0))


def main():
    print(__doc__)
    coefficient = coefficient_from_spec("example2_poly")
    for n in (7, 15):
        grid = GridSpec(n, 2)
        # the certificate's dense work that does not depend on the shift,
        # done once for the grid's four shifts
        blocks = certificate_blocks(grid, coefficient)
        for alpha, beta in SHIFTS:
            shift = Shift(alpha, beta)
            cert = verify_spectrum(grid, coefficient, shift, blocks)
            payload = certificate_payload(grid, shift, cert)
            print(json.dumps(payload))
            assert cert.certified and cert.all_inside
    print("\nEvery certificate reports all_inside=true: the dense spectrum")
    print("never leaves the certified interval, at any shift or size, and")
    print("the eigenvalue extremes show how tightly the endpoints hold.")
    print("A certificate with certified=false would mean the sign conditions")
    print("failed and the interval proves nothing; none occurs here.")


if __name__ == "__main__":
    main()
