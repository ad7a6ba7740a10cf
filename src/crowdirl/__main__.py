"""`python -m crowdirl`: the `crowdirl` command without an installed script."""
import sys

from .cli import main

sys.exit(main())
