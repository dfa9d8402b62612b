"""``python -m repro`` entry point."""

import sys

if __name__ == "__main__":
    if sys.argv[1:2] == ["lint"]:
        # The analyzer reads source and never imports it: dispatched
        # before the experiment stack loads, it reports on a tree whose
        # import is broken instead of dying with it.
        from repro.lint.cli import main as lint_main

        sys.exit(lint_main(sys.argv[2:]))
    from repro.cli import main

    sys.exit(main())
