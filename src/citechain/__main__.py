"""Process entry for `python -m citechain` and the installed `citechain` script."""

import os

# Set before numpy loads, so its bundled OpenBLAS starts no worker threads.
# The CLI never hands BLAS enough work to share: a spare worker would only
# spin about 100 ms of CPU per process, and np.convolve's dot products above
# 10,000 terms would round by the host's core count (`author_pmf_series`).
# Overriding the environment keeps the output bytes independent of it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    main()
