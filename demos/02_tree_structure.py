"""
Trees: star partitions decide everything
========================================

On a tree the swap number has a complete structural answer.  A tree has a
swap pair exactly when no vertex keeps two or more pendant leaves (a
"weak" tree), and then the swap number equals the minimum weight S(T) of a
simple star partitioning, computed here by dynamic programming.
"""

from swapsets import (
    Graph,
    analyse_tree,
    dd_m_tree,
    hat_graph,
    independence_number,
    is_weak_tree,
    path_graph,
    s_weight,
    star_graph,
    weak_reduction,
)

# A caterpillar: spine 0-1-2-3 with a leaf hanging off each spine vertex.
caterpillar = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
print("caterpillar weak?", is_weak_tree(caterpillar))
weight, partition = s_weight(caterpillar)
print("S(T) =", weight)
for center, leaves in partition.parts:
    print("  star part: center", center, "leaves", list(leaves))

result = dd_m_tree(caterpillar)
print("swap number:", result.k, "(equals S)")
print("certificate D =", sorted(result.certificate.d))

# A star is the opposite extreme: its center hoards leaves, so no swap
# pair exists, even though S(T) is still defined.
star = star_graph(4)
print("\nK_{1,4} weak?", is_weak_tree(star), "| S =", s_weight(star)[0])
print("K_{1,4} swap number:", dd_m_tree(star).to_json_dict()["ddm"])

# The weak reduction strips surplus leaves, one kept per hoarding vertex.
red = weak_reduction(star)
print("reduction keeps", red.reduced.n, "vertices, removed", red.removed)

# S is additive over the reduction: each stripped leaf costs exactly 1.
assert s_weight(star)[0] == s_weight(red.reduced)[0] + len(red.removed)

# Hat graphs (a pendant glued to every vertex) are where four invariants
# meet: domination number, eviction number, swap number, independence
# number all coincide.
base = path_graph(3)
hat = hat_graph(base)
print("\nhat of P3: four-way equality?",
      analyse_tree(hat).to_json_dict()["gamma_equals_alpha"])
print("  alpha =", independence_number(hat), "= swap number =", dd_m_tree(hat).k)

# The two finer characterizations separate on small paths; analyse_tree
# reads every flag off one partition DP, as `swapsets tree` prints them.
for n in (4, 5, 6):
    flags = analyse_tree(path_graph(n)).to_json_dict()
    print(f"P{n}: alpha==swap {flags['alpha_equals_swap_number']}, "
          f"alpha==eviction {flags['alpha_equals_eviction']}")
