"""Rewrite tests/ledger.json from this checkout.

    PYTHONPATH=src python tests/rewrite_ledger.py

Run it only when a change moves an entry on purpose, and name the entry and
the reason in CHANGES.md.  The file name keeps pytest from collecting it.
"""

import json

from test_ledger import LEDGER, record

if __name__ == "__main__":
    LEDGER.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {LEDGER}")
