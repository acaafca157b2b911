// Fixture for the `shared_mut_across_shards` rule's persistent-worker
// entries: the step handed to `Worker::spawn` runs on the worker thread,
// so everything it reaches is worker code even though no parallel.rs
// closure calls it. Expected findings: the module-level `static mut`, the
// RefCell in side() and the unsafe block in side() (window_step -> side);
// the Rc in lock_step() never runs on the worker and is exempt.
static mut WINDOWS: u64 = 0;

pub fn start(sys: &mut System) {
    sys.worker = Worker::spawn(window_step);
}

fn window_step(w: &mut Window) {
    side(w);
}

fn side(w: &mut Window) {
    let seen: RefCell<u64> = RefCell::new(w.cycles);
    w.cycles += *seen.borrow();
    unsafe {
        WINDOWS += 1;
    }
}

fn lock_step(w: &mut Window) {
    let shared: Rc<u64> = Rc::new(w.cycles);
    w.cycles += *shared;
}
