"""Code-similarity metrics Sim-T and Sim-L (§V-A of the paper).

* **Sim-T** — token-based: both codes are lexically tokenized and compared
  with the Ratcliff-Obershelp longest-contiguous-matching-subsequence
  algorithm; the ratio lies in [0, 1] and the paper treats >= 0.6 as "high
  similarity".
* **Sim-L** — line-based: the number of identical (whitespace-normalized)
  lines, counted order-insensitively as a multiset intersection, divided by
  the line count of the longer code.

Sim-T is ``difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()``
over the two token lists, computed bit for bit from the diagonal runs of
their match matrix instead of difflib's row-by-row search:

* **What difflib returns.**  With no junk, ``find_longest_match(alo, ahi,
  blo, bhi)`` returns the longest common run inside the window; among runs
  of that length, the one that starts earliest in ``a``, then earliest in
  ``b``.  Its junk-extension loops never fire, and with no match it
  returns size 0.
* **What the ratio is.**  ``ratio()`` is ``2.0 * M / (len(a) + len(b))``,
  where M is the sum of the block sizes found by recursing left and right
  of each window's match.  The order of that recursion does not change M,
  and the float expression is the same one.
* **Runs.**  Tokens are mapped to ints, and ``b``'s bigrams are indexed
  once.  From that index come every maximal diagonal run of length >= 2:
  a match (i, j) that does not extend back to (i - 1, j - 1), extended
  forward.
* **Windows.**  A window's match is the run with the longest clipped
  length inside it; ties go to the smallest clipped start (i, j).  A
  window passes its children only the runs that can reach them: those
  starting before the match in both sequences go left, those ending after
  it in both go right.
* **Isolated matches.**  If no run clips to length >= 2 in a window, the
  window holds only isolated matches, and so does every window below it.
  Its recursion is then a greedy chain: the first row with a match past
  the previous column (a bisect over ``b``'s positions of that token),
  repeated.  Those are exactly the blocks difflib finds.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.utils.text import strip_comments
from repro.utils.tokens import tokenize_code

#: The paper's heuristic threshold for "reasonable similarity".
HIGH_SIMILARITY_THRESHOLD = 0.6


def _normalized_lines(code: str) -> List[str]:
    out = []
    for line in strip_comments(code).splitlines():
        norm = " ".join(line.split())
        if norm:
            out.append(norm)
    return out


def _runs(a: List[int], b: List[int], width: int) -> List[Tuple[int, int, int]]:
    """Every maximal diagonal run ``(i, j, length)`` of length >= 2 where
    ``a[i:i + length] == b[j:j + length]``, in order of ``(i, j)``.  Token
    ids are below ``width``; ``a`` and ``b`` end in two different
    negative sentinels."""
    starts = defaultdict(list)
    for j, key in enumerate([x * width + y for x, y in zip(b, b[1:-1])]):
        starts[key].append(j)
    runs = []
    for i, key in enumerate([x * width + y for x, y in zip(a, a[1:-1])]):
        js = starts.get(key)
        if js:
            before = a[i - 1]  # the sentinel when i == 0
            for j in js:
                if b[j - 1] != before:
                    end, m = i + 2, j + 2
                    while a[end] == b[m]:
                        end += 1
                        m += 1
                    runs.append((i, j, end - i))
    return runs


def _matched(tokens_a: List[str], tokens_b: List[str]) -> int:
    """M: how many tokens ``SequenceMatcher(None, tokens_a, tokens_b,
    autojunk=False)`` puts in its matching blocks."""
    ids: Dict[str, int] = {}
    a = [ids.setdefault(t, len(ids)) for t in tokens_a]
    b = [ids.setdefault(t, len(ids)) for t in tokens_b]
    la, lb = len(a), len(b)
    where = defaultdict(list)
    for j, t in enumerate(b):
        where[t].append(j)
    a.append(-1)
    b.append(-2)
    total = 0
    todo = [(0, la, 0, lb, _runs(a, b, len(ids)))]
    while todo:
        alo, ahi, blo, bhi, runs = todo.pop()
        # The runs that clip to 2 or more here: no other can win below.
        live = []
        keep = live.append
        size, bi, bj = 1, ahi, bhi
        for r in runs:
            ri, rj, rk = r
            if alo <= ri and blo <= rj and ri + rk <= ahi and rj + rk <= bhi:
                n = rk
            else:
                # Clip the run to the window: skip s cells, end at e.
                s = alo - ri
                t = blo - rj
                if t > s:
                    s = t
                if s < 0:
                    s = 0
                e = ahi - ri
                t = bhi - rj
                if t < e:
                    e = t
                if rk < e:
                    e = rk
                n = e - s
                if n < 2:
                    continue
                ri += s
                rj += s
            keep(r)
            if n > size or n == size and (ri < bi or ri == bi and rj < bj):
                size, bi, bj = n, ri, rj
        if size == 1:
            # Isolated matches only: difflib takes the first match, then
            # recurses right of it alone.
            j = blo
            for i in range(alo, ahi):
                js = where.get(a[i])
                if js:
                    p = bisect_left(js, j)
                    if p < len(js) and js[p] < bhi:
                        total += 1
                        j = js[p] + 1
                        if j == bhi:
                            break
            continue
        total += size
        if alo < bi and blo < bj:
            todo.append((alo, bi, blo, bj, [r for r in live if r[0] < bi and r[1] < bj]))
        ei, ej = bi + size, bj + size
        if ei < ahi and ej < bhi:
            todo.append((ei, ahi, ej, bhi,
                         [r for r in live if r[0] + r[2] > ei and r[1] + r[2] > ej]))
    return total


def sim_t(code_a: str, code_b: str) -> float:
    """Token-based Ratcliff-Obershelp similarity in [0, 1]."""
    tokens_a = tokenize_code(strip_comments(code_a))
    tokens_b = tokenize_code(strip_comments(code_b))
    if not tokens_a and not tokens_b:
        return 1.0
    return 2.0 * _matched(tokens_a, tokens_b) / (len(tokens_a) + len(tokens_b))


def sim_l(code_a: str, code_b: str) -> float:
    """Line-based similarity: identical lines regardless of order, over the
    line count of the longer code."""
    lines_a = _normalized_lines(code_a)
    lines_b = _normalized_lines(code_b)
    longer = max(len(lines_a), len(lines_b))
    if longer == 0:
        return 1.0
    common = Counter(lines_a) & Counter(lines_b)
    return sum(common.values()) / longer
