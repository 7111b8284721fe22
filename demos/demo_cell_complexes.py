"""A tour of the forest cube complexes.

Builds the three rank-3 complexes, prints their cell counts, certifies
non-positive curvature, and shows that the fundamental-group presentation
read off the quotient complex coincides with the pure virtual cactus
presentation.
"""
from cactusflower import (
    build_complex,
    check_gromov_flag,
    check_local_isometry,
    extract_presentation,
    make_presentation,
    presentations_match,
    quotient_map,
)
from cactusflower.groups import format_word

n = 3
D, breve, hat = (build_complex(kind, n) for kind in ("D", "breveD", "hatD"))
print("cells by dimension")
for name, c in [("D_3", D), ("breveD_3", breve), ("hatD_3", hat)]:
    print(f"  {name}: {c.f_vector()}")

print("\ncurvature certificates")
for name, c in [("D_3", D), ("breveD_3", breve), ("hatD_3", hat)]:
    print(f"  {name}: {check_gromov_flag(c)}")

print("\nquotient maps are local isometric embeddings:")
print("  D -> breveD:", bool(check_local_isometry(quotient_map(D, breve))))
print("  breveD -> hatD:", bool(check_local_isometry(quotient_map(breve, hat))))

ext = extract_presentation(hat)
gen = make_presentation("pure_virtual_cactus", n)
print(f"\npresentation from the 2-skeleton: {len(ext.generators)} generators,"
      f" {len(ext.relators)} relators")
for rel in ext.relators:
    print("  relator:", format_word(rel))
print("matches the pure virtual cactus presentation:", presentations_match(ext, gen))
