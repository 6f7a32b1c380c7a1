"""Residue chains: the closure-alternation route to a difference code.

For a subset a of a finite poset, iterate

    F_0 = E,   F_(2k+1) = cl(a & F_2k),   F_(2k+2) = cl(~a & F_(2k+1)),

a decreasing chain of closed sets.  theta is the least even index from
which the chain is constant.  On a finite poset the stable value is
always empty, and

    a = D_(theta+1)( (E - F_alpha) for alpha <= theta ).

The raw code wastes levels; trim_code() removes the two kinds of slack
a residue code can carry (a leading empty entry, and an adjacent pair
of equal entries) without changing the denotation.  Trimming is sound
but not always minimal -- on the 4-element poset 2 < 1 < {0, 3} the set
{0, 2} trims to level 4 while its true level is 3 -- so the exact
classifier residue_levels() reads the residue sets directly instead of
trusting the trimmed level.
"""

from __future__ import annotations

from dataclasses import dataclass

from hierkit.diff_hierarchy import DiffCode, code_from_masks, denote_mask


def residue_sequence(poset, a_mask):
    """Return (F, theta): F is the list F_0..F_theta, theta even.

    The chain may stall for one step and then keep falling (cl(a & F)
    can fix F while cl(~a & F) still shrinks it), so stability is only
    declared once two consecutive steps change nothing.  A chain that
    stabilizes on a nonempty set is a ValueError.
    """
    comp = poset.carrier & ~a_mask
    F = [poset.carrier]
    while True:
        F.append(poset.closure((a_mask if len(F) % 2 else comp) & F[-1]))
        if len(F) >= 3 and F[-1] == F[-3]:
            stable_from = len(F) - 3
            # theta <= stable_from + 1 < len(F), so F already reaches it
            theta = stable_from if stable_from % 2 == 0 else stable_from + 1
            if F[theta]:
                # Cannot happen on a finite poset; kept as a tripwire for
                # any future carrier that is not one.
                raise ValueError("residue chain stabilized on %r != empty" % F[theta])
            return F[: theta + 1], theta


def trim_code(masks, alpha):
    """Shrink a mask sequence, preserving the D_alpha denotation.

    Two sound moves, each of which only shortens the sequence:
      * drop an adjacent equal pair (nothing's parity moves, and no
        point can first appear at the removed slots);
      * drop a leading empty entry (every slot shifts down; both
        parities flip together).
    They reach the same result in whichever order they run, so equal
    neighbours are cancelled in one pass with a stack, which leaves
    none, and then at most one leading empty entry is left to drop.
    Alpha falls by one per removed entry.
    """
    out = []
    for m in masks:
        if out and out[-1] == m:
            out.pop()
        else:
            out.append(m)
    if out and out[0] == 0:
        del out[0]
    return out, int(alpha) - len(masks) + len(out)


@dataclass
class ResidueDecomposition:
    F: list
    theta: int
    code: DiffCode          # raw: alpha = theta + 1
    trimmed_code: DiffCode  # same denotation, alpha = trimmed_level
    trimmed_level: int
    co_level: int | None    # set when the trimmed code is an embedded co-code


def hausdorff_decompose(poset, a_mask):
    F, theta = residue_sequence(poset, a_mask)
    raw_masks = [poset.carrier & ~f for f in F]
    code = code_from_masks(theta + 1, raw_masks)
    t_masks, t_alpha = trim_code(raw_masks, theta + 1)
    trimmed = code_from_masks(t_alpha, t_masks)
    if denote_mask(trimmed, poset) != a_mask:
        raise AssertionError("trimming changed the denotation")  # pragma: no cover
    co_level = None
    if t_masks and t_masks[-1] == poset.carrier:
        co_level = t_alpha - 1
    return ResidueDecomposition(F, theta, code, trimmed, t_alpha, co_level)


def _longest_start(mask, own_F, other_F):
    """Longest membership-alternating ascending chain starting inside mask.

    x lies in F_l of its own set's chain (l odd) exactly when an
    alternating chain of length l starts at a point >= x whose bottom
    shares x's side, so the bottom can be swapped for x; even lengths
    come from the complement's chain the same way.  The largest l whose
    residue set still meets mask is therefore the exact chain length.
    """
    best = 0
    for l, f in enumerate(own_F):
        if l % 2 == 1 and mask & f:
            best = max(best, l)
    for l, f in enumerate(other_F):
        if l % 2 == 0 and l > 0 and mask & f:
            best = max(best, l)
    return best


def residue_levels(poset, a_mask):
    """Exact (sigma, pi) for a from two residue chains, one for the set
    and one for its complement.

    Note this reads neither code that hausdorff_decompose builds:
    trimming removes slack but need not reach the minimal level (it can
    miss that re-basing the code on the complement side saves a step).
    The residue sets themselves know better; see _longest_start.
    """
    comp = poset.carrier & ~a_mask
    own, _ = residue_sequence(poset, a_mask)
    other, _ = residue_sequence(poset, comp)
    return _longest_start(a_mask, own, other), _longest_start(comp, other, own)
