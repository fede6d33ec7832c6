"""
Exhaustive scans over small graphs
==================================

Enumerating all connected graphs up to eight vertices (one per
isomorphism class) lets structural claims about low independence number
be checked against every possible case, and turns up the exceptions.
"""

from swapsets import (
    alpha2_swap,
    alpha3_bound_check,
    alpha3_swap_with_stage,
    conjecture_scan,
    cycle_graph,
    dd_m_exact,
    enumerate_connected_graphs,
    independence_number,
    is_strong_graph,
    parse_graph,
    product_question_scan,
    verify_certificate,
)

for n in range(1, 8):
    print(f"connected graphs on {n} vertices: {len(enumerate_connected_graphs(n))}")

# Independence number 2 forces a swap pair of size two on anything bigger
# than a triangle.
cert = alpha2_swap(cycle_graph(5))
print("\nC5:", sorted(cert.d), "slides to", sorted(cert.d_prime))
count = 0
for n in range(4, 8):
    for g in enumerate_connected_graphs(n):
        if independence_number(g) == 2:
            assert verify_certificate(g, alpha2_swap(g))
            count += 1
print(f"alpha=2 graphs with verified 2-certificates, n<=7: {count}")

# Independence number 3 usually gives a pair of size three, found already
# at the first proof stage, but not always: a vertex hoarding two pendant
# leaves blocks every swap pair regardless of independence number.
hoarder = parse_graph("6 6\n0 1\n0 2\n0 3\n1 4\n1 5\n4 5\n")
print("\nhoarder graph: alpha =", independence_number(hoarder),
      "strong =", is_strong_graph(hoarder),
      "swap number =", dd_m_exact(hoarder).to_json_dict()["ddm"])
if alpha3_swap_with_stage(hoarder) is None:
    print("construction finds no swap pair: the graph has a strong stem")

# Whenever a swap set exists at alpha = 3, size three suffices.
bound = alpha3_bound_check(7)
print(f"\nalpha=3 bound check, n<=7: {len(bound.records)} graphs, "
      f"{len(bound.counterexamples)} over size 3")

# Across all small graphs the swap number never beats the independence
# number, and the graphs with no swap set thin out as order grows.
report = conjecture_scan(7)
print(f"swap number <= alpha: {len(report.counterexamples)} violations "
      f"over {len(report.records)} graphs")
for alpha, entry in sorted(report.extras["no_swap_table"].items()):
    print(f"  alpha={alpha}: largest swap-free order {entry['max_n']} "
          f"({entry['count_at_max']} graphs)")

# Products: is the swap number of G x H ever below gamma(G) * gamma(H)?
scan = product_question_scan(16)
print(f"\nproduct scan to 16 vertices: {len(scan.rows)} pairs, "
      f"{scan.gg_violations} gamma*gamma violations")
