//! Known-good: real violations, each carrying an audited site-level
//! allow. The analyzer must report nothing — and if any allow stops
//! matching, it must flag the directive itself as stale.

fn exact_sentinel(rate: f64) -> bool {
    // A deliberate exact comparison, with its audit trail:
    rate == 0.0 // lint: allow(float-eq) -- 0.0 is a sentinel written verbatim, never computed
}

fn invariant_backed_expect(x: Option<u32>) -> u32 {
    x.expect("slot map invariant: live handle") // lint: allow(no-expect) -- invariant documented on SlotMap::insert
}
