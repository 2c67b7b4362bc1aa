#!/usr/bin/env python3
"""Region computation for the four-dimensional demo cone with six rays.

This ring is known not to admit a splitting NCCR (that non-existence proof
is outside this library's scope); here we only compute its conic and MCM
classes, which is everything the region machinery needs from an input cone.
Note how much smaller the conic set is than the MCM set.
"""

from hibinccr import (class_group, chamber_decomposition, corpus_path,
                      conic_classes, mcm_region, parse_cone)

cone = parse_cone(corpus_path("rank2_demo.cone").read_text())
cgd = class_group(cone)
print(f"rank {cgd.rank} class group; divisor weights (Smith basis, "
      "repo sign convention):")
print(" ", sorted(cgd.weights))

dec = chamber_decomposition(cgd)
kinds: dict = {}
for c in dec.chambers:
    kinds[c.kind] = kinds.get(c.kind, 0) + 1
print(f"\n{len(dec.chambers)} chambers ({kinds}); "
      f"criterion hypothesis holds: {dec.hypothesis_ok}")

conic = set(conic_classes(cgd))
region = mcm_region(cgd, [(-6, 6), (-6, 6)])
print(f"\nconic classes: {len(conic)}")
print(f"MCM classes in [-6,6]^2: {len(region)}")

for y in range(6, -7, -1):
    row = []
    for x in range(-6, 7):
        if (x, y) in region:
            row.append("#" if (x, y) in conic else "+")
        else:
            row.append(".")
    print("   " + "".join(row))
