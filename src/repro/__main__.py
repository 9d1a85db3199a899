"""Allow ``python -m repro <experiment>`` to run the experiment CLI."""

import sys

from .cli import build_parser, main
from .exceptions import ConfigurationError
from .experiments import list_experiments


def _run() -> int:
    """Run the CLI; a configuration error (an unknown experiment, say) prints
    the usage and the experiment list to stderr and exits 2, like argparse."""
    try:
        return main()
    except ConfigurationError as error:
        build_parser().print_usage(sys.stderr)
        print(f"repro: error: {error}", file=sys.stderr)
        print(f"experiments: {', '.join(list_experiments())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(_run())
