// Fixture for the `panic_reachable` rule: panic-family expressions in
// functions the call graph reaches from a tick entry point. Expected
// findings: the unwrap in pump(), the expect in drain_one() and the
// unwrap in probe_tail() (reached only from tick_probed); the panic in
// cold_init() (never called from a tick entry) and the test-module
// unwrap are exempt.
struct Pump {
    q: Vec<u32>,
}

impl Pump {
    fn tick(&mut self) {
        self.pump();
    }

    fn pump(&mut self) {
        let head = self.q.pop().unwrap();
        drain_one(head);
    }

    fn tick_probed(&mut self) {
        self.probe_tail();
    }

    fn probe_tail(&mut self) {
        let _ = self.q.last().unwrap();
    }
}

fn drain_one(v: u32) {
    let w = checked(v).expect("fixture: always Some");
    let _ = w;
}

fn checked(v: u32) -> Option<u32> {
    v.checked_add(1)
}

fn cold_init() {
    panic!("init-time only; not on the tick path");
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let x: Option<u32> = Some(1);
        x.unwrap();
    }
}
