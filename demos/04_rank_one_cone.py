#!/usr/bin/env python3
"""The rank-one pipeline on a three-dimensional cone with four rays.

The class group is infinite cyclic; the weight of each prime divisor is a
single integer.  From those we read off the number of NCCR summands, the
conic interval (here all the MCM classes, since a weight is 1), the window
family of splitting NCCRs, and walk the mutation path connecting the
generator windows.
"""

from hibinccr import (Rank1Weights, base_window, class_group,
                      corpus_path, exchange_graph, exchange_graph_dot,
                      mcm_bound, mutate_window, parse_cone)

cone = parse_cone(corpus_path("rank1_example.cone").read_text())
cgd = class_group(cone)
print("rays:")
for ray, w in zip(cone.rows, cgd.weights):
    print(f"  {ray}  ->  divisor class {w[0]:+d}")

line = Rank1Weights.from_class_group(cgd)
bound = mcm_bound(line)
print(f"\nsummand count: {bound.summands}")
print(f"MCM classes:   T(a) for a in [{bound.interval[0]}, {bound.interval[1]}]"
      " (these are exactly the conic ones)")
print(f"base NCCR:     {base_window(line).label()}, and every shift of it")

print("\nmutating the base window at its low end, twice:")
win = base_window(line)
for _ in range(2):
    res = mutate_window(win, "low", line)
    print(f"  {win.label()} --[replace T({res.mutated_class})]--> "
          f"{res.window.label()}   kernel T({res.kernel_class}), "
          f"middle T({res.middle_classes[0]}) + T({res.middle_classes[1]})")
    win = res.window
back = mutate_window(win, "high", line)
print(f"  mutating back at the high end returns {back.window.label()}")

print("\nexchange graph of the generator windows (DOT):")
print(exchange_graph_dot(exchange_graph(line), generators_only=True))
