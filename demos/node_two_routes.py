"""The node x*y, computed twice.

Route one builds the span of the products g*f in D/fD (normal forms by
left division by f) with exact sparse linear algebra and reads level
dimensions off a trailing echelon.  Route two
counts irreducible monomials of a confluent rewrite system.  The two
answers must match level by level; their agreement is the package's
central cross-validation.
"""

from dxext.hyperext import CokernelEngine, ext1_self_dims
from dxext.models import DXQuotientModule
from dxext.parser import parse
from dxext.rewrite import confluence_check, irreducible_dims, node_system
from dxext.weyl import WeylElement

f = parse("x*y", 2)
MAX_DEG = 5

print("polynomial:", f)
print()

# Route one: exact linear algebra with widening.
table = ext1_self_dims(f, MAX_DEG)
print("linear-algebra route (Ext^1 of the canonical module):")
for lvl in table.levels:
    print(f"  level {lvl.m}: dim {lvl.dim}  [{lvl.status}]")
print("  generators widened to degree", table.notes["generator_width"])
print()

# Route two: the diamond lemma.
system = node_system()
report = confluence_check(system, MAX_DEG + 1)
print("rewrite route: confluent through degree", report.max_degree, "->", report.confluent)
counts = irreducible_dims(system, MAX_DEG)
for lvl in counts.levels:
    print(f"  level {lvl.m}: {lvl.dim} irreducible monomials  [{lvl.status}]")
print()

dims_a = [lvl.dim for lvl in table.levels]
dims_b = [lvl.dim for lvl in counts.levels]
print("routes agree:", dims_a == dims_b, dims_a)
print()

# A worked reduction: x dx^2 modulo the two-sided ideal.
e = parse("x dx^2", 2)
print("normal form of", e, "is", system.normal_form(e))

# Route one's representative: the remainder of left division by f in
# D/fD, reduced against the rows NF(g*f) with deg g <= 6.
quotient = DXQuotientModule(f)
engine = CokernelEngine(quotient, f)
engine.widen_to(6)
print("canonical class of", e, "is", WeylElement(2, engine.reduce(quotient.reduce_element(e))))
print("(both representatives differ from the input by ideal members)")
