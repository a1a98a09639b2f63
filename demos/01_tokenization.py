"""Lossless aggressive tokenization.

Every character of the input ends up in exactly one token: words, digit
runs, individual newlines, whitespace runs, and single special
characters.  Offsets always point back into the original string, so
nothing a later stage might need (like a line break hinting at a
sentence boundary) is lost.
"""

from legal_sbd import detokenize, tokenize
from legal_sbd.tokenizer import SPACE_KINDS

TEXT = "D._ est entré à l'école le 16 juillet 1979.\nNuméro d'appel: 1231/2015"

seq = tokenize(TEXT)

print("input:", TEXT.replace("\n", "\\n"))
print(f"\n{len(seq)} tokens (start, end, kind, text):")
for tok in seq:
    shown = tok.text.replace("\n", "\\n")
    print(f"  {tok.start:3d} {tok.end:3d}  {tok.kind:<10} {shown!r}")

nonws = [t.text for t in seq if t.kind not in SPACE_KINDS]
print("\nnon-whitespace stream:", " | ".join(nonws))

assert detokenize(seq) == TEXT
print("\nround trip reproduces the input exactly:", detokenize(seq) == TEXT)
