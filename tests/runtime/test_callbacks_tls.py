"""T-to-U callbacks (§8) and thread-local storage (§3)."""

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, compile_and_load
from repro.compiler import compile_source
from repro.errors import MachineFault
from repro.runtime.trusted import T_PROTOTYPES

from tests.machine.test_engine_equivalence import run_engine

CONFIGS = [BASE, OUR_MPX, OUR_SEG]

# One comparator call of ~140k U instructions, all inside one T call.
SLOW_COMPARATOR = T_PROTOTYPES + """
int slow(int a, int b) {
    int spin = 0;
    for (int i = 0; i < 20000; i++) { spin = spin + 1; }
    return a - b;
}
int main() {
    int arr[2];
    arr[0] = 2; arr[1] = 1;
    u_qsort(arr, 2, slow);
    return 1;
}
"""


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
class TestCallbacks:
    def test_qsort_with_u_comparator(self, config):
        source = T_PROTOTYPES + """
        int ascending(int a, int b) { return a - b; }
        int main() {
            int arr[5];
            arr[0] = 42; arr[1] = 7; arr[2] = 19; arr[3] = 0; arr[4] = 7;
            u_qsort(arr, 5, ascending);
            int code = 0;
            for (int i = 0; i < 5; i++) { code = code * 100 + arr[i]; }
            return code;
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 7071942

    def test_fold_with_u_function(self, config):
        source = T_PROTOTYPES + """
        int add(int acc, int v) { return acc + v; }
        int main() {
            int arr[4];
            for (int i = 0; i < 4; i++) { arr[i] = (i + 1) * 10; }
            return u_fold(arr, 4, add, 2);
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 102

    def test_callback_can_call_back_into_t(self, config):
        # The comparator itself uses a T function: nested U->T inside
        # T->U. The CFI return protocol must hold at every layer.
        source = T_PROTOTYPES + """
        int cmp(int a, int b) { return declassify_int((private int)(a - b)); }
        int main() {
            int arr[3];
            arr[0] = 3; arr[1] = 1; arr[2] = 2;
            u_qsort(arr, 3, cmp);
            return arr[0] * 100 + arr[1] * 10 + arr[2];
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 123

    def test_callback_state_restored(self, config):
        # Registers/locals of the T-calling function survive callbacks.
        source = T_PROTOTYPES + """
        int ident(int acc, int v) { return acc + v; }
        int main() {
            int keep = 1234;
            int arr[2];
            arr[0] = 1; arr[1] = 2;
            int folded = u_fold(arr, 2, ident, 0);
            return keep + folded;
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 1237


class TestCallbackCFI:
    def test_mismatched_taint_signature_rejected(self):
        source = T_PROTOTYPES + """
        private int leaky(private int a, int b) { return a; }
        int main() {
            int arr[2];
            arr[0] = 1; arr[1] = 0;
            u_qsort(arr, 2, (int (*)(int, int))(int)&leaky);
            return 0;
        }
        """
        process = compile_and_load(source, OUR_MPX)
        with pytest.raises(MachineFault) as e:
            process.run()
        assert e.value.kind == "cfi-check-failed"

    def test_garbage_pointer_rejected(self):
        source = T_PROTOTYPES + """
        int main() {
            int arr[2];
            arr[0] = 1; arr[1] = 0;
            u_qsort(arr, 2, (int (*)(int, int))123456);
            return 0;
        }
        """
        process = compile_and_load(source, OUR_MPX)
        with pytest.raises(MachineFault):
            process.run()


class TestCallbackBudget:
    """U code a callback steps counts against the run's instruction
    budget, identically on both engines."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_budget_stops_a_long_callback(self, config):
        binary = compile_source(SLOW_COMPARATOR, config, seed=1)
        fast = run_engine(binary, "predecoded", max_instructions=10_000)
        assert fast[0][:2] == ("fault", "instruction-budget-exhausted")
        assert fast[1]["instructions"] == 10_000
        assert fast == run_engine(binary, "reference", max_instructions=10_000)

    def test_budget_covering_callbacks_returns_exit_code(self):
        binary = compile_source(SLOW_COMPARATOR, OUR_MPX, seed=1)
        full = run_engine(binary, "predecoded")
        assert full[0] == ("exit", 1)
        total = full[1]["instructions"]
        assert total > 140_000
        for engine in ("predecoded", "reference"):
            assert run_engine(binary, engine, max_instructions=total) == full


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
class TestTls:
    def test_tls_base_is_stack_aligned(self, config):
        source = T_PROTOTYPES + """
        int main() {
            int base = __tlsbase();
            return (base & 0xfffff) == 0;   // 1 MiB aligned
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 1

    def test_threads_have_disjoint_tls(self, config):
        source = T_PROTOTYPES + """
        int bases[8];
        int worker(int slot) {
            bases[slot] = __tlsbase();
            return 0;
        }
        int main() {
            int t1 = thread_create((int)&worker, 0);
            int t2 = thread_create((int)&worker, 1);
            thread_join(t1);
            thread_join(t2);
            return bases[0] != bases[1] && bases[0] != 0;
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 1

    def test_tls_survives_calls(self, config):
        source = T_PROTOTYPES + """
        void bump() {
            int *tls = (int*)__tlsbase();
            tls[1] += 1;
        }
        int main() {
            for (int i = 0; i < 5; i++) { bump(); }
            int *tls = (int*)__tlsbase();
            return tls[1];
        }
        """
        process = compile_and_load(source, config)
        assert process.run() == 5
