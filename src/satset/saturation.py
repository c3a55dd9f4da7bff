"""Saturating sets: verification, greedy and randomized construction.

A set S saturates the plane when every point outside S lies on a line
carrying two points of S.  The module tracks three disjoint pools that
partition the points at every step: the chosen set S, the determined
points D (outside S but on some 2-secant of S), and the unsaturated rest
R.  The benefit of a candidate point is the number of R-points its
addition would remove, counting the candidate itself once S is nonempty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import formulas
from .plane import (ProjectivePlane, _echo, _point_index, _point_indices, join_rows, line_hits,
                    on_lines)
from .rng import generator_from_seed

BRUTEFORCE_POINT_CAP = 31

# Largest float64 sample array `monte_carlo_expectation` allocates, in bytes.
SAMPLE_BYTES_CAP = 1 << 31


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _covered_mask(plane: ProjectivePlane, mask: np.ndarray) -> np.ndarray:
    """Points lying on some line with >= 2 marked points.

    Each such line carries a marked point, so the per-line counts come
    from the lines through the marked points alone: O(|S| q) work.
    """
    hits = line_hits(plane, np.flatnonzero(mask))
    return on_lines(plane, np.flatnonzero(hits >= 2))


def _unsaturated_mask(plane: ProjectivePlane, points: Iterable[int]) -> np.ndarray:
    """Bool mask of the points outside the set with no line through them carrying two set points."""
    mask = np.zeros(plane.n, dtype=bool)
    mask[_point_indices(plane, points)] = True
    return ~_covered_mask(plane, mask) & ~mask


def unsaturated(plane: ProjectivePlane, points: Iterable[int]) -> set[int]:
    """Points outside the set with no line through them carrying two set points."""
    return set(np.flatnonzero(_unsaturated_mask(plane, points)).tolist())


def is_saturating(plane: ProjectivePlane, points: Iterable[int]) -> bool:
    """True iff the set has >= 2 points and saturates every outside point."""
    idx = _point_indices(plane, points)
    return len(set(idx.tolist())) >= 2 and not unsaturated(plane, idx)


class VerificationError(RuntimeError):
    """A construction produced a set that the independent recount rejects."""


def _proven(plane: ProjectivePlane, points: set[int]) -> set[int]:
    """Return a constructed set once `is_saturating` proves it, else raise.

    Every construction returns through here: one independent recount as
    the set leaves the library, kept under `python -O` (no assert).
    """
    if not is_saturating(plane, points):
        raise VerificationError(f"constructed set of {len(points)} points "
                                f"does not saturate PG(2,{plane.q})")
    return points


# ---------------------------------------------------------------------------
# incremental state
# ---------------------------------------------------------------------------

class SaturationState:
    """Mutable chosen/determined/unsaturated bookkeeping for one plane.

    Maintains per-line counts of chosen points (`line_hits`) and of
    unsaturated points (`unsat_on_line`) so that benefits and skew-line
    scans cost O(q) instead of a full recount.  Single-owner: not meant
    to be shared across threads.

    `SaturationState(plane, points)` starts from the given points in one
    pass, leaving the state that `add_point` calls in the same order
    would: the points' own secants (`line_hits >= 2`) determine every
    point on them, and the rest outside the set is unsaturated.
    """

    def __init__(self, plane: ProjectivePlane, points: Iterable[int] = ()):
        n = plane.n
        self.plane = plane
        idx = _point_indices(plane, points)
        self.chosen: list[int] = idx.tolist()
        self.in_chosen = np.zeros(n, dtype=bool)
        self.in_chosen[idx] = True
        if np.count_nonzero(self.in_chosen) < idx.size:
            dup = int(np.flatnonzero(np.bincount(idx, minlength=n) > 1)[0])
            raise ValueError(f"point {dup} already chosen")
        self.line_hits = line_hits(plane, idx)
        determined = on_lines(plane, np.flatnonzero(self.line_hits >= 2))
        self.in_unsat = ~determined & ~self.in_chosen
        unsat = np.flatnonzero(self.in_unsat)
        # count the smaller side, as every line has q+1 points: a sample
        # leaves few points unsaturated, an empty state leaves all of them
        if 2 * unsat.size <= n:
            self.unsat_on_line = line_hits(plane, unsat)
        else:
            rest = np.flatnonzero(~self.in_unsat)
            self.unsat_on_line = plane.q + 1 - line_hits(plane, rest)
        self._unsat_total = int(unsat.size)
        # benefit_vector's join rows, one per chosen point, built on demand
        self._joins: list[np.ndarray] = []

    @property
    def size(self) -> int:
        return len(self.chosen)

    @property
    def unsat_count(self) -> int:
        return self._unsat_total

    @property
    def current_set(self) -> set[int]:
        return set(self.chosen)

    def add_point(self, point: int) -> int:
        """Add a point to the chosen set; returns how many points left R."""
        point = _point_index(self.plane, point)
        if self.in_chosen[point]:
            raise ValueError(f"point {point} already chosen")
        lines_p = self.plane.point_lines[point]
        newly_secant = lines_p[self.line_hits[lines_p] == 1]
        removed = 0
        self.in_chosen[point] = True
        self.chosen.append(point)
        self.line_hits[lines_p] += 1
        if self.in_unsat[point]:
            self.in_unsat[point] = False
            self.unsat_on_line[lines_p] -= 1
            removed += 1
        if newly_secant.size:
            # two lines through `point` share no other point, so no dupes
            cand = self.plane.line_points[newly_secant].ravel()
            dies = self.in_unsat[cand]
            dying = cand[dies]
            if dying.size:
                self.in_unsat[dying] = False
                # count from the smaller side of the new secants
                if 2 * dying.size <= cand.size:
                    np.subtract.at(self.unsat_on_line,
                                   self.plane.point_lines[dying].ravel(), 1)
                else:
                    # a line missing `point` meets each of the k new secants
                    # once, so it loses k points less those that stay there
                    k = newly_secant.size
                    stay = cand[~dies & (cand != point)]
                    np.add.at(self.unsat_on_line,
                              self.plane.point_lines[stay].ravel(), 1)
                    self.unsat_on_line -= k
                    self.unsat_on_line[lines_p] += k   # `point`'s other lines lose none
                    self.unsat_on_line[newly_secant] = 0
                removed += int(dying.size)
        self._unsat_total -= removed
        return removed

    def benefits(self, points) -> np.ndarray:
        """The benefit of each given unchosen point, from its own lines: O(k q)."""
        idx = _point_indices(self.plane, points)
        taken = idx[self.in_chosen[idx]]
        if taken.size:
            raise ValueError(f"point {int(taken[0])} is already in the set")
        if not self.chosen:
            return np.zeros(idx.size, dtype=np.int64)
        lines = self.plane.point_lines[idx].astype(np.intp)  # one cast, not one per take
        live = np.take(self.line_hits, lines) >= 1
        out = (np.take(self.unsat_on_line, lines) * live).sum(axis=1)
        # an unsaturated candidate lies on all its live lines but counts once
        return out + self.in_unsat[idx] * (1 - live.sum(axis=1))

    def benefit_vector(self) -> np.ndarray:
        """Benefits for all points at once; chosen points get -1.

        Every chosen point s has a join row J_s, where J_s[x] is the line
        through s and x, built from s's pencil the first time it is needed
        and kept on the state (|S| n int32 in all).  A point scores the
        unsaturated counts of the lines J_s[x] summed over s.  A line
        carrying two chosen points is a secant and holds no unsaturated
        point, so each live line through x adds its count once.  An
        unsaturated point lies on all |S| of its joins but counts once.
        """
        n = self.plane.n
        if not self.chosen:
            out = np.zeros(n, dtype=np.int64)
        else:
            self._joins.extend(join_rows(self.plane, self.chosen[len(self._joins):]))
            # int32 sums are exact: no point scores more than n < 2**31.
            # Join rows hold proven line indices, so "clip" never changes a
            # value; it lets take write into `term` without a hidden buffer.
            weights = self.unsat_on_line.astype(np.int32)
            total = np.take(weights, self._joins[0], mode="clip")
            term = np.empty_like(total)
            for row in self._joins[1:]:
                total += np.take(weights, row, out=term, mode="clip")
            total -= self.in_unsat * np.int32(self.size - 1)
            out = total.astype(np.int64)
        out[self.in_chosen] = -1
        return out


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    """One greedy step: who was picked, why, and what it did to R.

    `skew_line` is the minimum-|R ∩ line| line among those missing the
    chosen set (lowest index on ties), recorded for both variants whenever
    one exists; the skew variant also picks its point from it.  The two
    seed steps carry no line diagnostics, and their `benefit` is the
    number of points that left R (the seed point itself at step 0).
    """
    step: int
    point: int
    benefit: int
    r_before: int
    r_after: int
    skew_line: int | None
    min_skew_intersection: int | None
    skew_benefit_sum: int | None = None


VARIANTS = ("skew", "global")
STOP_RULES = ("benefit-floor", "step-cap", "exhaust")


def _select(state: SaturationState, variant: str) -> StepRecord:
    """The step the variant would take next; `_apply` records the r_after it leaves."""
    if state.size < 2:
        raise ValueError("greedy steps need two seed points in place; "
                         "see greedy_construct for the startup")
    if state.unsat_count == 0:
        raise ValueError("no unsaturated points remain")
    plane, i, r = state.plane, state.size, state.unsat_count
    skew = np.flatnonzero(state.line_hits == 0)
    l_star = min_int = benefit_sum = None
    # the skew variant needs only its skew line's benefits, global all of them
    bvec = state.benefit_vector() if variant == "global" or not skew.size else None
    if skew.size:
        counts = state.unsat_on_line[skew]
        k = int(np.argmin(counts))          # first minimum = lowest line index
        l_star, min_int = int(skew[k]), int(counts[k])
        line_pts = plane.line_points[l_star]
        line_benefits = state.benefits(line_pts) if bvec is None else bvec[line_pts]
        benefit_sum = int(line_benefits.sum())
        # double count: each unsaturated point on the line is removable
        # only by itself, each one off it by its |S| connecting points
        assert benefit_sum == min_int + i * (r - min_int), \
            "benefit double-count identity failed"
        assert min_int * plane.q <= r, \
            "minimum skew intersection exceeded |R|/q"
    scores = line_benefits if bvec is None else bvec
    k = int(np.argmax(scores))              # rows ascend: first maximum = lowest index
    pick = int(line_pts[k]) if bvec is None else k
    benefit = int(scores[k])
    return StepRecord(step=i, point=pick, benefit=benefit, r_before=r,
                      r_after=r - benefit, skew_line=l_star,
                      min_skew_intersection=min_int, skew_benefit_sum=benefit_sum)


def _apply(state: SaturationState, step: StepRecord) -> StepRecord:
    removed = state.add_point(step.point)
    assert removed == step.benefit, "incremental update disagrees with benefit"
    return replace(step, r_after=state.unsat_count)


def greedy_construct(plane: ProjectivePlane, variant: str = "skew",
                     stop_rule: str = "benefit-floor",
                     step_cap: int | None = None,
                     ) -> tuple[set[int], list[StepRecord]]:
    """Build a verified saturating set greedily.

    Starts from points 0 and 1 (in the canonical plane all point pairs are
    projectively equivalent, and benefits cannot distinguish candidates
    before two points are in).  Then repeats greedy steps until the stop
    rule fires:

    - ``benefit-floor`` (default): stop once the variant's best candidate
      removes at most one unsaturated point, then run `complete` (whose
      additions remove two each).
    - ``step-cap``: stop at |S| = step_cap (default ceil(sqrt(3 q ln q));
      at least 2), then run `complete`.  Any other rule refuses a step_cap.
    - ``exhaust``: greedy steps until nothing is unsaturated, which
      leaves `complete` nothing to add.

    The result is proven saturating by an independent recount before it
    is returned (`VerificationError` otherwise).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if stop_rule not in STOP_RULES:
        raise ValueError(f"stop_rule must be one of {STOP_RULES}, got {stop_rule!r}")
    if step_cap is not None and stop_rule != "step-cap":
        raise ValueError(f"step_cap only applies to stop_rule 'step-cap', got {stop_rule!r}")
    if step_cap is not None and step_cap < 2:
        raise ValueError(f"step_cap must be >= 2 (the starting pair is always in), "
                         f"got {step_cap}")
    state = SaturationState(plane)
    trace: list[StepRecord] = []
    for seed_point in (0, 1):
        r_before = state.unsat_count
        removed = state.add_point(seed_point)
        trace.append(StepRecord(step=state.size - 1, point=seed_point,
                                benefit=removed, r_before=r_before,
                                r_after=state.unsat_count,
                                skew_line=None, min_skew_intersection=None))
    cap = None
    if stop_rule == "step-cap":
        cap = formulas.default_step_cap(plane.q) if step_cap is None else int(step_cap)
    while state.unsat_count and (cap is None or state.size < cap):
        sel = _select(state, variant)
        if stop_rule == "benefit-floor" and sel.benefit <= 1:
            break
        trace.append(_apply(state, sel))
    return _proven(plane, complete(state)), trace


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def complete(state: SaturationState) -> set[int]:
    """Finish a state in place until it saturates; return its chosen set.

    Unsaturated points are processed in pairs (x1, x2), always the two
    lowest-index ones: with (s1, s2) the two lowest-index set points, the
    meet y of <x1,s1> and <x2,s2> is added, which determines both, so the
    state gains at most ceil(|R|/2) points.  A state with fewer than two
    points is first seeded with the lowest-index outside points (callers
    report those startup additions separately).  The result depends only
    on the state's chosen set, not on the order its points were added.
    """
    plane = state.plane
    p = 0
    while state.size < 2:
        while state.in_chosen[p]:
            p += 1
        state.add_point(p)
    while state.unsat_count >= 2:
        x1, x2 = (int(v) for v in np.flatnonzero(state.in_unsat)[:2])
        s1, s2 = (int(v) for v in np.flatnonzero(state.in_chosen)[:2])
        l1 = plane.line_through(x1, s1)
        l2 = plane.line_through(x2, s2)
        # The lines differ: one line through x1, s1, x2, s2 would put two
        # set points on a line through x1, contradicting x1 unsaturated.
        assert l1 != l2
        y = plane.meet(l1, l2)
        # y is never already chosen: a second set point on <x1,s1> would
        # likewise contradict x1 unsaturated.  y may coincide with x1 or
        # x2; adding it is then still valid, the mate being determined by
        # y together with its own anchor.
        assert not state.in_chosen[y]
        state.add_point(y)
        assert not state.in_unsat[x1] and not state.in_unsat[x2]
    if state.unsat_count == 1:
        x = int(np.flatnonzero(state.in_unsat)[0])
        s = int(np.flatnonzero(state.in_chosen)[0])
        row = plane.line_points[plane.line_through(x, s)]
        y = next(int(v) for v in row if v != x and not state.in_chosen[v])
        state.add_point(y)
    assert state.unsat_count == 0
    return state.current_set


# ---------------------------------------------------------------------------
# randomized construction
# ---------------------------------------------------------------------------

@dataclass
class RandomTrialStats:
    """Bookkeeping of one seeded sampling run.

    The final set never exceeds sample_size + ceil(unsaturated_size / 2)
    points, plus 2 - sample_size when fewer than two points were sampled.
    """
    sample_size: int
    unsaturated_size: int


def random_construct(plane: ProjectivePlane, seed: int,
                     p_override: float | None = None,
                     ) -> tuple[set[int], RandomTrialStats]:
    """Sample each point independently, then complete to a saturating set.

    The inclusion probability defaults to `formulas.sampling_probability`;
    an explicit override in [0, 1] is accepted.  All randomness comes from
    the package PCG64 stream for `seed`, so runs reproduce exactly.  The
    sample's state is built in one pass, completed in place, and the result
    proven saturating.
    """
    if p_override is None:
        p = formulas.sampling_probability(plane.q)
    else:
        p = float(p_override)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling probability must lie in [0, 1], got {p}")
    rng = generator_from_seed(seed)
    state = SaturationState(plane, np.flatnonzero(rng.random(plane.n) < p))
    # Y leaves out the sample itself, so it is n - |X| when |X| < 2
    stats = RandomTrialStats(sample_size=state.size, unsaturated_size=state.unsat_count)
    return _proven(plane, complete(state)), stats


def check_sample_bytes(trials: int) -> None:
    """Refuse a trial count whose float64 samples exceed `SAMPLE_BYTES_CAP`.

    A count `_echo` cuts is refused without its MiB figure, as long as the count.
    """
    if (needed := 8 * trials) > SAMPLE_BYTES_CAP:
        cap = SAMPLE_BYTES_CAP >> 20
        if (count := _echo(str(trials))) != str(trials):
            raise ValueError(f"{count} trials exceed the {cap} MiB sample ceiling")
        raise ValueError(f"{trials} trials need {needed >> 20} MiB of samples, "
                         f"above the {cap} MiB ceiling")


def monte_carlo_expectation(plane: ProjectivePlane, p: float, trials: int,
                            seed: int) -> tuple[float, float]:
    """Empirical mean and standard error of the undetermined-point count.

    Each trial samples every point with probability p from its own
    (seed, trial) stream and counts the points on no 2-secant of the
    sample, its own members included, so the mean is comparable to
    `formulas.expected_unsaturated`.  A trial count whose samples exceed
    `SAMPLE_BYTES_CAP` is refused before any allocation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_sample_bytes(trials)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    n = plane.n
    ys = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        mask = np.random.default_rng((seed, t)).random(n) < p
        ys[t] = n - int(_covered_mask(plane, mask).sum())
    mean = float(ys.mean())
    stderr = float(ys.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def minsat_bruteforce(plane: ProjectivePlane) -> tuple[int, set[int]]:
    """Exact minimum saturating-set size with the lexicographically first witness.

    Enumerates subsets in increasing size, lexicographically within each
    size, using bitmask incidence; no lower-bound pruning, so the result
    is a bound-free oracle.  Refuses planes with more than
    `BRUTEFORCE_POINT_CAP` points: PG(2,5) (31) takes a fraction of a
    second, while PG(2,7) (57) would try over 36 million 6-subsets.  The
    witness leaves through `_proven`, as every constructed set does.
    """
    n = plane.n
    if n > BRUTEFORCE_POINT_CAP:
        raise ValueError(f"plane has {n} points; brute force capped at {BRUTEFORCE_POINT_CAP}")
    line_bits = [sum(1 << v for v in row) for row in plane.line_points.tolist()]
    # pair_bits[a][b]: the line through a and b, as a bitmask (the diagonal is unused)
    pair_bits = [[line_bits[j] for j in row]
                 for row in join_rows(plane, list(range(n))).tolist()]
    full = (1 << n) - 1
    for k in range(2, n + 1):
        for combo in itertools.combinations(range(n), k):
            covered = 0
            for a, b in itertools.combinations(combo, 2):
                covered |= pair_bits[a][b]
            for v in combo:
                covered |= 1 << v
            if covered == full:
                return k, _proven(plane, set(combo))
    raise RuntimeError("no saturating set found")  # unreachable: all points saturate
