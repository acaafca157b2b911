// Fixture for the `tick_path_scan` rule: linear table scans and hashed
// container fields in functions the call graph reaches from a tick
// entry. Expected findings: the position() walk and the hashed-field
// probe in route(), the contains(&..) in admit(), the un-excused
// min_by_key in coldest() and the find() in lookup() (reached only from
// tick_probed), and — the host-model shape — the hashed socket map a
// node tick reaches through a driver step in Lib::send(); the excused
// min_by_key, the scan in cold_report() (never called from a tick entry)
// and the test-module scan are exempt.
use std::collections::HashMap;

struct Table {
    entries: Vec<Option<u32>>,
    owners: HashMap<u32, usize>,
    stamps: Vec<u64>,
}

impl Table {
    fn tick(&mut self, flow: u32) {
        self.route(flow);
        self.admit(flow);
        let _ = self.coldest();
    }

    fn route(&mut self, flow: u32) -> Option<usize> {
        let slot = self.entries.iter().position(|&e| e == Some(flow));
        let owner = self.owners.get(&flow).copied();
        slot.or(owner)
    }

    fn admit(&mut self, flow: u32) -> bool {
        !self.entries.contains(&Some(flow))
    }

    fn coldest(&self) -> Option<usize> {
        let first = (0..self.stamps.len()).min_by_key(|&i| self.stamps[i]);
        // f4tlint: allow(tick_path_scan): eight-entry table, one compare
        // tree in hardware.
        let again = (0..8).min_by_key(|&i| self.stamps[i]);
        first.or(again)
    }

    fn cold_report(&self) -> Option<usize> {
        self.entries.iter().position(Option::is_none)
    }

    fn tick_probed(&mut self, flow: u32) {
        let _ = self.lookup(flow);
    }

    fn lookup(&self, flow: u32) -> Option<&Option<u32>> {
        self.entries.iter().find(|&&e| e == Some(flow))
    }
}

struct Lib {
    sockets: HashMap<u32, u64>,
}

impl Lib {
    fn send(&mut self, flow: u32) -> Option<u64> {
        self.sockets.get(&flow).copied()
    }
}

struct Node {
    lib: Lib,
}

impl Node {
    fn tick(&mut self) {
        self.step_flow(3);
    }

    fn step_flow(&mut self, flow: u32) {
        let _ = self.lib.send(flow);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracles_may_scan() {
        let v = [1u32, 2, 3];
        assert_eq!(v.iter().position(|&x| x == 2), Some(1));
    }
}
