"""The counterfunction parser that reads each token once, against the
parser it replaced.  The reference below is that parser's three functions,
copied unchanged: every text must give the same tree, or be refused by both."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import rates as R
from tmlab.rates import (Affine, Compose, Const, Counterfunction, Identity, Max, Power,
                         RateError, Table, monotonize)

# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------


def parse_counterfunction(text: str) -> Counterfunction:
    """Parse the mini-grammar: const:C | id | affine:a,b | pow:e |
    max(f,g) | comp(f,g) | table:[v0,v1,...] | mono(f)."""
    try:
        return _parse_cf(text)
    except RateError:
        raise
    except ValueError as exc:
        raise RateError(f"cannot parse counterfunction {text!r}: {exc}") from exc


def _parse_cf(text: str) -> Counterfunction:
    s = text.strip()
    if s == "id":
        return Identity()
    if s.startswith("const:"):
        return Const(int(s[6:]))
    if s.startswith("affine:"):
        a, b = (int(t) for t in s[7:].split(","))
        return Affine(a, b)
    if s.startswith("pow:"):
        return Power(int(s[4:]))
    if s.startswith("table:"):
        body = s[6:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise RateError(f"bad table literal: {text!r}")
        return Table(tuple(int(t) for t in body[1:-1].split(",")))
    for head in ("max(", "comp(", "mono("):
        if s.startswith(head) and s.endswith(")"):
            args = _split_args(s[len(head):-1])
            if head == "mono(":
                if len(args) != 1:
                    raise RateError(f"mono takes one argument: {text!r}")
                return monotonize(_parse_cf(args[0]))
            if len(args) != 2:
                raise RateError(f"{head[:-1]} takes two arguments: {text!r}")
            f, g = (_parse_cf(a) for a in args)
            return Max((f, g)) if head == "max(" else Compose(f, g)
    raise RateError(f"cannot parse counterfunction {text!r}")


def _split_args(body: str) -> list[str]:
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append(body[start:i])
            start = i + 1
    pieces.append(body[start:])
    # affine literals carry an internal top-level comma; re-join the pair
    args, i = [], 0
    while i < len(pieces):
        a = pieces[i].strip()
        if a.startswith("affine:") and "," not in a and i + 1 < len(pieces):
            args.append(a + "," + pieces[i + 1].strip())
            i += 2
        else:
            args.append(a)
            i += 1
    return args


# ---------------------------------------------------------------------------
# Texts: a chain of max, comp and mono at most 100 deep around a leaf
# ---------------------------------------------------------------------------

# U+001C..U+001F are blanks to str.strip but not to int(): the reference took
# them as blanks at the edges of the text and of each argument of max, comp
# and mono, and refused them next to a number elsewhere; the parser takes them
# as blanks everywhere (test_separator_controls_are_blanks)
BLANKS = ["", "", "", " ", "  ", "\t", "\n", "\u3000"]
NUMBERS = [str(i) for i in range(12)] + ["+5", "1_0", "00", " 7", "\u0663", "123456789"]
BAD_NUMBERS = ["-3", "", "0x1", "1.0", "1__0", "_1", "+ 5", "5 5"]
JUNK = ["nope:3", "idd", "ID", "max", "const", "table:", "affine:1", ":", "id id", "comp()",
        "mono(id", "(", ")", "[", "]", ","]


def _leaf(rng, clean):
    """A leaf with blanks around its tokens; unless clean, possibly a bad
    number or a junk token."""
    numbers = NUMBERS if clean or rng.random() < 0.8 else BAD_NUMBERS
    blank, num = (lambda: rng.choice(BLANKS)), (lambda: rng.choice(numbers))
    kind = rng.randrange(5 if clean else 6)
    if kind == 0:
        text = "id"
    elif kind == 1:
        text = f"const:{blank()}{num()}"
    elif kind == 2:
        text = f"pow:{num()}"
    elif kind == 3:
        text = f"affine:{num()}{blank()},{blank()}{num()}"
    elif kind == 4:
        size = rng.randrange(1 if clean else 0, 4)
        text = f"table:{blank()}[" + ",".join(blank() + num() + blank() for _ in range(size)) + "]"
    else:
        text = rng.choice(JUNK)
    return blank() + text + blank()


def _text(seed):
    """Heads nested up to 100 deep around a leaf, the other arguments leaves.
    Half the texts are clean: well formed but for the values of their
    numbers.  The others may take a wrong arity, a blank before "(", bad
    leaves and stray brackets.  Most texts are shallow, as the reference
    takes time in depth times length; one in twenty is 100 deep."""
    rng = random.Random(seed)
    clean = rng.random() < 0.5
    depth = rng.choices([rng.randrange(7), rng.randrange(101), 100], [16, 3, 1])[0]
    text = _leaf(rng, clean)
    siblings = [_leaf(rng, clean) for _ in range(rng.randrange(1, 4))]
    for level in range(depth):
        head = rng.choice(["max", "comp", "mono"])
        sibling = siblings[level % len(siblings)]
        args = [text] if head == "mono" else rng.choice([[text, sibling], [sibling, text]])
        fault = 9 if clean else rng.randrange(3 * depth)
        if fault == 0:
            args.append(sibling)
        elif fault == 1:
            args.pop()
        opening = " (" if fault == 2 else "("
        text = rng.choice(BLANKS) + head + opening + ",".join(args) + ")" + rng.choice(BLANKS)
    for _ in range(0 if clean else rng.randrange(3)):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + rng.choice("()[],") + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def _outcome(parse, text):
    """The rendered tree, or None where the parser raises RateError."""
    try:
        return parse(text).render()
    except RateError:
        return None


@settings(max_examples=1000, deadline=None)
@given(text=st.integers(0, 2 ** 32).map(_text))  # one draw: a deep text stays cheap
def test_parser_matches_the_reference(text):
    assert _outcome(R.parse_counterfunction, text) == _outcome(parse_counterfunction, text)


@pytest.mark.parametrize("text", [
    "table:[1\x1c]", "table:[\x1f1,2]", "affine:1\x1d,2", "max(affine:1\x1d,2,id)",
    "\x1eid\x1e", "max(\x1cid,id\x1c)",
])
def test_separator_controls_are_blanks(text):
    # the reference refused the first three and took the others
    plain = text.translate({c: None for c in range(0x1C, 0x20)})
    assert R.parse_counterfunction(text).render() == R.parse_counterfunction(plain).render()


def test_long_blank_runs_are_read_in_one_pass():
    # each run of blanks is one token, so 10**5 blanks take one scan, not
    # one per position
    blanks = " " * 10 ** 5
    t0 = time.monotonic()
    assert R.parse_counterfunction("id" + blanks).render() == "id"
    assert (R.parse_counterfunction(f"max({blanks}id{blanks},{blanks}id{blanks})").render()
            == "max(id,id)")
    with pytest.raises(RateError):
        R.parse_counterfunction("max" + blanks + "(id,id)")
    assert time.monotonic() - t0 < 1.0
