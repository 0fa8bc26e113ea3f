"""Grade one manifest with `notegrade batch` and print the peak resident
memory of this process, in MB, as the last line.

Run by run.py with PYTHONPATH set to the checkout's src directory:

    python3 bench/rss_child.py MANIFEST OUT_DIR
"""

import contextlib
import io
import resource
import sys

from notegrade import cli

manifest, out_dir = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["batch", "--manifest", manifest,
                     "--out", f"{out_dir}/rss-report.json",
                     "--csv", f"{out_dir}/rss-report.csv", "--workers", "1"])
if code != 0:
    sys.exit(code)
# ru_maxrss is in KiB on Linux.
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
