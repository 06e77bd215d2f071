"""Suite-wide set-up.

Importing factorint here, before any test module imports numpy, applies the
package's BLAS thread default (one OpenBLAS thread unless a thread variable
is already set), so the suite runs with the same setting as the CLI.
"""

import factorint  # noqa: F401
