"""argparse as an oracle for the command line.

``cli._parse_argv`` reads ``argv`` in one pass over the flag table; this
module keeps the parser it replaced: an ``argparse`` parser with the command
as a positional choice and one option per ``cli._FLAGS`` entry, fed through
the shim that attached a value starting like a negative number to its flag.
Tests compare the two on drawn command lines.
"""

import argparse
import re

from eigencoupling import cli


#: a flag value that starts like a negative number: "-0.1,0.1", "-.5", "-1e-3"
NEGATIVE_VALUE = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli._UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="eigencoupling", description=cli.__doc__)
    parser.add_argument("command", choices=cli._COMMANDS)
    for flag, keywords in cli._FLAGS.items():
        # without its default a flag left out reads None, which parse() drops
        parser.add_argument(flag, **{k: v for k, v in keywords.items() if k != "default"})
    return parser


def attach_negative_values(argv: list) -> list:
    """Spell ``--flag -0.1,0.1`` as ``--flag=-0.1,0.1``.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number, so a list such as -0.1,0.1 after --window, --loop
    or --offset would not reach its flag; the attached spelling always does.
    A unique prefix of a flag counts as the flag, as it does for argparse;
    an ambiguous one is left for argparse to refuse.
    """
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (NEGATIVE_VALUE.match(token) and len(flag) > 2 and "=" not in flag
                and sum(name.startswith(flag) for name in cli._FLAGS) == 1):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


PARSER = build_parser()


def parse(argv: list):
    """The command and the given flags by option key, as ``cli._parse_argv``
    returns them; a refusal raises ``cli._UsageError`` with argparse's text."""
    args = PARSER.parse_args(attach_negative_values(argv))
    return args.command, {key: value for key, value in vars(args).items()
                          if value is not None and key != "command"}
