"""Exact T-rank tables and the smallest-parts identity.

The T-rank counts N_T(m, n) interpolate between the crank (T = 1) and the
Dyson rank (T = 3).  Everything below is exact integer arithmetic; the
only floating point is in the printing.
"""

from trank import moment_table, partition_number, rank_count_table
from trank.qseries import spt_series

# --- rank counts of small n --------------------------------------------------
# N_3(m, n) counts partitions of n with rank m.  Row sums recover p(n).
table = rank_count_table(3, 8)
print("rank counts N_3(m, n):")
print("  n | p(n) | counts for m = -n..n")
for n in range(1, 9):
    counts = [table.count(m, n) for m in range(-n, n + 1)]
    assert sum(counts) == partition_number(n)
    print(f"  {n} | {partition_number(n):4d} | {counts}")

# The crank table has one famous wrinkle: at n = 1 the defining series
# produces a negative entry.
crank = rank_count_table(1, 3)
print("\ncrank counts at n = 1 (note the signed entry):",
      [crank.count(m, 1) for m in (-1, 0, 1)])

# --- moments and the spt identity -------------------------------------------
# Second moments of crank and rank differ by exactly twice the number of
# smallest parts, summed over all partitions.
m1 = moment_table(1, 2, 40)
m3 = moment_table(3, 2, 40)
spt = spt_series(40)
print("\n n  spt(n)  (m_1^2 - m_3^2)/2")
for n in (5, 10, 20, 40):
    half_diff = (m1[n] - m3[n]) // 2
    assert half_diff == spt[n]
    print(f"{n:3d}  {spt[n]:6d}  {half_diff:6d}")

# Higher T moments grow at the same exponential rate but with smaller
# constants; odd moments vanish by symmetry.
print("\nsecond moments at n = 40 for odd T:")
for T in (1, 3, 5, 7, 9):
    print(f"  m_{T}^2(40) = {moment_table(T, 2, 40)[40]}")
print("first moments are identically zero:",
      all(v == 0 for v in moment_table(5, 1, 40).values))
