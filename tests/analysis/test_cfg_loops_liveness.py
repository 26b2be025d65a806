"""CFG traversal, natural loop, call graph, postdom tests."""

from repro.analysis.cfg import postorder, reachable_blocks, reverse_postorder
from repro.analysis.callgraph import CallGraph
from repro.analysis.loops import find_natural_loops, loop_depths
from repro.analysis.postdominators import PostDominatorTree
from repro.ir import (
    Function,
    FunctionSig,
    I64,
    IRBuilder,
    const_i1,
    const_i64,
)
from tests.conftest import lower


def loopy_fn():
    fn = Function("f", FunctionSig((I64,), I64), ["n"])
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    b = IRBuilder(fn, entry)
    b.br(header)
    b.set_block(header)
    phi = b.phi(I64)
    phi.add_incoming(const_i64(0), entry)
    from repro.ir import ICmpPred

    cond = b.icmp(ICmpPred.SLT, phi, fn.args[0])
    b.cbr(cond, body, exit_)
    b.set_block(body)
    nxt = b.add(phi, const_i64(1))
    phi.add_incoming(nxt, body)
    b.br(header)
    b.set_block(exit_)
    b.ret(phi)
    return fn, entry, header, body, exit_, phi, nxt


class TestCFG:
    def test_reachable_excludes_orphans(self):
        fn, entry, header, body, exit_, *_ = loopy_fn()
        dead = fn.add_block("dead")
        IRBuilder(fn, dead).ret(const_i64(0))
        reach = reachable_blocks(fn)
        assert dead not in reach
        assert reach == {entry, header, body, exit_}

    def test_rpo_parents_first(self):
        fn, entry, header, body, exit_, *_ = loopy_fn()
        rpo = reverse_postorder(fn)
        assert rpo.index(entry) < rpo.index(header)
        assert rpo.index(header) < rpo.index(body)
        assert rpo.index(header) < rpo.index(exit_)

    def test_postorder_is_reverse_of_rpo(self):
        fn, *_ = loopy_fn()
        assert list(reversed(postorder(fn))) == reverse_postorder(fn)


class TestLoops:
    def test_single_loop_detected(self):
        fn, entry, header, body, exit_, *_ = loopy_fn()
        loops = find_natural_loops(fn)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header is header
        assert loop.blocks == {header, body}
        assert loop.latches == [body]

    def test_exit_edges(self):
        fn, entry, header, body, exit_, *_ = loopy_fn()
        loop = find_natural_loops(fn)[0]
        assert loop.exit_edges() == [(header, exit_)]

    def test_loop_depths(self):
        fn, entry, header, body, exit_, *_ = loopy_fn()
        depths = loop_depths(fn)
        assert depths[header] == 1 and depths[body] == 1
        assert depths[entry] == 0 and depths[exit_] == 0

    def test_nested_loops_from_source(self):
        module = lower(
            """
            int f(int n) {
              int acc = 0;
              for (int i = 0; i < n; ++i)
                for (int j = 0; j < i; ++j)
                  acc += i * j;
              return acc;
            }
            """
        )
        fn = module.functions["f"]
        loops = find_natural_loops(fn)
        assert len(loops) == 2
        # Outer first (more blocks).
        assert loops[0].num_blocks > loops[1].num_blocks
        assert loops[1].blocks < loops[0].blocks


class TestCallGraph:
    def test_edges_and_order(self):
        module = lower(
            """
            int leaf(int x) { return x + 1; }
            int mid(int x) { return leaf(x) * 2; }
            int top(int x) { return mid(x) + leaf(x); }
            int main() { return top(1); }
            """
        )
        graph = CallGraph.build(module)
        assert graph.callees["top"] == {"mid", "leaf"}
        assert graph.callers["leaf"] == {"mid", "top"}
        order = [f.name for f in graph.bottom_up_order()]
        assert order.index("leaf") < order.index("mid") < order.index("top")
        assert order.index("top") < order.index("main")

    def test_self_recursion(self):
        module = lower("int f(int n) { if (n < 1) return 0; return f(n - 1); }")
        graph = CallGraph.build(module)
        assert graph.is_self_recursive("f")

    def test_transitive_closure(self):
        module = lower(
            """
            int a(int x) { return x; }
            int b(int x) { return a(x); }
            int c(int x) { return b(x); }
            """
        )
        graph = CallGraph.build(module)
        assert graph.transitively_called_from("c") == {"a", "b"}


class TestPostDominators:
    def test_diamond_postdoms(self):
        fn = Function("f", FunctionSig((), I64))
        entry, left, right, merge = (
            fn.add_block("entry"),
            fn.add_block("left"),
            fn.add_block("right"),
            fn.add_block("merge"),
        )
        IRBuilder(fn, entry).cbr(const_i1(True), left, right)
        IRBuilder(fn, left).br(merge)
        IRBuilder(fn, right).br(merge)
        IRBuilder(fn, merge).ret(const_i64(0))
        pdt = PostDominatorTree.compute(fn)
        assert pdt.postdominates(merge, entry)
        assert pdt.postdominates(merge, left)
        assert not pdt.postdominates(left, entry)

    def test_control_dependents(self):
        fn = Function("f", FunctionSig((), I64))
        entry, left, right, merge = (
            fn.add_block("entry"),
            fn.add_block("left"),
            fn.add_block("right"),
            fn.add_block("merge"),
        )
        IRBuilder(fn, entry).cbr(const_i1(True), left, right)
        IRBuilder(fn, left).br(merge)
        IRBuilder(fn, right).br(merge)
        IRBuilder(fn, merge).ret(const_i64(0))
        deps = PostDominatorTree.compute(fn).control_dependents()
        assert deps[entry] == {left, right}

    def test_multiple_exits(self):
        fn = Function("f", FunctionSig((), I64))
        entry, a, b = fn.add_block("entry"), fn.add_block("a"), fn.add_block("b")
        IRBuilder(fn, entry).cbr(const_i1(True), a, b)
        IRBuilder(fn, a).ret(const_i64(1))
        IRBuilder(fn, b).ret(const_i64(2))
        pdt = PostDominatorTree.compute(fn)
        assert not pdt.postdominates(a, entry)
        assert pdt.postdominates(a, a)
