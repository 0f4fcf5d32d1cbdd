"""The recursion over a product graph: complete graphs fold into direct
products, graphs of single vertices into free-product windows, and the
path a - b - c splits along the link of its pivot b, which is the rest of
the graph (other graphs are out of scope). Every level certifies its
lattice checks and the fullness / quasiconvexity / isometry of the
inclusions it uses."""

from hhspace.fixtures import raag_path
from hhspace.treecombine import audit_combined

res = raag_path(2)
print("path a-b-c with integer-ball bases")
print("certification chain ok:", res.cert.ok)
for lvl in res.cert.levels:
    print("  level %-14s case %-13s lattice ip=%s cc=%s"
          % (",".join(lvl.subgraph), lvl.case, lvl.ip_ok, lvl.cc_ok))
    for inc in lvl.inclusions:
        print("    %-22s full=%s hq=%s iso=%s (K,C)=%s"
              % (inc["name"], inc["full_ok"], inc["hq_ok"], inc["iso_ok"],
                 inc["hyp_qi"]))

rep = audit_combined(res.combined)
print("\ncombined audit of the top window: ok =", rep.ok)
print(rep.summary())
