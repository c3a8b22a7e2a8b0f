// Negative fixture for tools/lint_reachability.sh --self-test: a strong
// library function that no shipped binary calls. The self-test compiles
// it into a copy of libexplframe_core.a and requires the lint to report
// both the function and its object. Never part of the product build.
namespace explframe::lint_fixture {

int planted_unreached(int x) { return x + 1; }

}  // namespace explframe::lint_fixture
