#!/usr/bin/env python3
"""Draw MCM regions as ASCII grids.

'#' marks a conic class, '+' a class that is MCM but not conic, '.' the
rest.  Type I grows two antennas beyond the conic hexagon; type IV has no
antennas at all (MCM equals conic there); type V keeps a full square plus
four wings.
"""

from hibinccr import TypeParams, conic_facets, expected_weight_table, mcm_region


def draw(tag, params, half_width, half_height):
    ws = expected_weight_table(TypeParams(tag, params, "as-given"))
    box = [(-half_width, half_width), (-half_height, half_height)]
    region = mcm_region(ws, box)
    rule = conic_facets(ws, 2)
    print(f"type {tag} {params}   ({len(region)} MCM classes in the box)")
    for y in range(half_height, -half_height - 1, -1):
        row = []
        for x in range(-half_width, half_width + 1):
            if (x, y) in region:
                row.append("#" if rule.contains((x, y)) else "+")
            else:
                row.append(".")
        print("   " + "".join(row))
    print()


draw("I", (0, 1), 5, 3)
draw("I", (2, 3), 11, 5)
draw("IV", (2, 3), 5, 5)
draw("V", (1,), 6, 6)
