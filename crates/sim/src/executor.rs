//! Executes a behavioral-model application on a simulated machine.
//!
//! Each program of the application is an independent process that walks
//! its phase sequence: I/O burst, then computation burst, then
//! communication burst (the order the paper's phase definition fixes).
//! Bursts translate into resource requests:
//!
//! - an **I/O burst** of `d` modeled seconds represents
//!   `d × io_demand_rate` bytes, striped round-robin over the disk
//!   array; each participating disk serves its share as one positioning
//!   operation plus a sequential transfer,
//! - a **CPU burst** is divided into scheduling quanta spread over the
//!   CPU pool (QCRD's programs are internally data-parallel),
//! - a **communication burst** occupies one interconnect channel for its
//!   modeled duration plus the latency floor.
//!
//! Programs contend for the shared pools through FCFS queueing, so the
//! makespan reflects interference between QCRD's CPU-bound program 1 and
//! I/O-bound program 2 rather than assuming perfect overlap.

use clio_model::{Application, PhaseTimes, Requirements};

use crate::disk::{stripe_shares, striped_service};
use crate::engine::Engine;
use crate::machine::MachineConfig;
use crate::resource::FcfsServer;
use crate::time::SimTime;

/// Wall-clock accounting for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// Program name (from the model).
    pub name: String,
    /// Wall time spent in I/O bursts (including disk queueing).
    pub io_time: f64,
    /// Wall time spent in computation bursts (including CPU queueing).
    pub cpu_time: f64,
    /// Wall time spent in communication bursts.
    pub comm_time: f64,
    /// Simulated completion time of the program.
    pub finish: SimTime,
    /// The model-side demand the program presented (Eqs. 3–5).
    pub demand: Requirements,
}

impl ProgramReport {
    /// Total burst wall time.
    pub fn total_time(&self) -> f64 {
        self.io_time + self.cpu_time + self.comm_time
    }

    /// Fraction of burst wall time spent on I/O (Fig. 3's quantity).
    pub fn io_share(&self) -> f64 {
        let t = self.total_time();
        if t <= 0.0 {
            0.0
        } else {
            self.io_time / t
        }
    }

    /// Fraction of burst wall time spent computing.
    pub fn cpu_share(&self) -> f64 {
        let t = self.total_time();
        if t <= 0.0 {
            0.0
        } else {
            self.cpu_time / t
        }
    }
}

/// Result of simulating an application on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-program accounting, in model order.
    pub programs: Vec<ProgramReport>,
    /// Completion time of the whole application (last program finish).
    pub makespan: f64,
    /// CPU-pool utilization over the makespan.
    pub cpu_utilization: f64,
    /// Mean per-disk utilization over the makespan.
    pub disk_utilization: f64,
    /// Number of simulation events processed.
    pub events: u64,
}

impl SimReport {
    /// Application-level I/O wall time (sum over programs) — Fig. 2's
    /// "Application / IO" bar.
    pub fn total_io_time(&self) -> f64 {
        self.programs.iter().map(|p| p.io_time).sum()
    }

    /// Application-level I/O percentage (Fig. 3).
    pub fn io_percentage(&self) -> f64 {
        let total: f64 = self.programs.iter().map(|p| p.total_time()).sum();
        if total <= 0.0 {
            0.0
        } else {
            100.0 * self.total_io_time() / total
        }
    }
}

struct ProgState {
    phases: Vec<PhaseTimes>,
    next_phase: usize,
    stripe_rotation: usize,
    report: ProgramReport,
}

struct World {
    cfg: MachineConfig,
    cpu: FcfsServer,
    disks: Vec<FcfsServer>,
    net: FcfsServer,
    programs: Vec<ProgState>,
}

enum Step {
    Io,
    Cpu,
    Comm,
}

/// Simulates `app` on `machine`, returning the full report.
///
/// # Panics
/// Panics if the machine configuration is invalid.
pub fn simulate(app: &Application, machine: &MachineConfig) -> SimReport {
    machine.validate().expect("invalid machine configuration");

    let programs: Vec<ProgState> = app
        .programs()
        .iter()
        .map(|p| ProgState {
            phases: p.expand(),
            next_phase: 0,
            stripe_rotation: 0,
            report: ProgramReport {
                name: p.name().to_string(),
                io_time: 0.0,
                cpu_time: 0.0,
                comm_time: 0.0,
                finish: SimTime::ZERO,
                demand: p.requirements(),
            },
        })
        .collect();

    let mut world = World {
        cpu: FcfsServer::new(machine.cpus),
        disks: (0..machine.disks).map(|_| FcfsServer::new(1)).collect(),
        net: FcfsServer::new(machine.network.channels),
        cfg: machine.clone(),
        programs,
    };

    let mut engine: Engine<World> = Engine::new();
    for idx in 0..world.programs.len() {
        engine.schedule_at(SimTime::ZERO, move |eng, w| begin_step(eng, w, idx, Step::Io));
    }
    let end = engine.run(&mut world);

    let makespan = world.programs.iter().map(|p| p.report.finish.seconds()).fold(0.0, f64::max);
    let disk_utilization = if world.disks.is_empty() {
        0.0
    } else {
        world.disks.iter().map(|d| d.utilization(end)).sum::<f64>() / world.disks.len() as f64
    };

    SimReport {
        cpu_utilization: world.cpu.utilization(end),
        disk_utilization,
        programs: world.programs.into_iter().map(|p| p.report).collect(),
        makespan,
        events: engine.processed(),
    }
}

/// Starts the given burst of the current phase of program `idx`; when
/// the burst completes, chains to the next burst or phase.
fn begin_step(engine: &mut Engine<World>, world: &mut World, idx: usize, step: Step) {
    let now = engine.now();
    let phase_idx = world.programs[idx].next_phase;
    if phase_idx >= world.programs[idx].phases.len() {
        world.programs[idx].report.finish = now;
        return;
    }
    let phase = world.programs[idx].phases[phase_idx];

    match step {
        Step::Io => {
            let completion = issue_io_burst(world, idx, now, phase.disk);
            world.programs[idx].report.io_time += completion - now;
            engine.schedule_at(completion, move |eng, w| begin_step(eng, w, idx, Step::Cpu));
        }
        Step::Cpu => {
            let completion = issue_cpu_burst(world, now, phase.cpu);
            world.programs[idx].report.cpu_time += completion - now;
            engine.schedule_at(completion, move |eng, w| begin_step(eng, w, idx, Step::Comm));
        }
        Step::Comm => {
            let completion = issue_comm_burst(world, now, phase.comm);
            world.programs[idx].report.comm_time += completion - now;
            world.programs[idx].next_phase += 1;
            engine.schedule_at(completion, move |eng, w| begin_step(eng, w, idx, Step::Io));
        }
    }
}

/// Issues a striped I/O burst; returns its completion time.
fn issue_io_burst(world: &mut World, idx: usize, now: SimTime, burst: f64) -> SimTime {
    if burst <= 0.0 {
        return now;
    }
    let cfg = &world.cfg;
    let bytes = (burst * cfg.io_demand_rate).round() as u64;
    if bytes == 0 {
        return now;
    }
    let rotation = world.programs[idx].stripe_rotation;
    let mut completion = now;
    let shares = stripe_shares(bytes, world.disks.len(), cfg.stripe_unit);
    for (i, (chunks, tail)) in shares.enumerate() {
        let service = striped_service(&cfg.disk_model, cfg.stripe_unit, chunks, tail);
        if service <= 0.0 {
            continue;
        }
        let disk = (rotation + i) % world.disks.len();
        let (_, end) = world.disks[disk].acquire(now, service);
        completion = completion.max(end);
    }
    // Rotate the starting spindle so consecutive bursts spread tails.
    world.programs[idx].stripe_rotation = (rotation + 1) % world.disks.len();
    completion
}

/// Issues a quantized CPU burst across the pool; returns completion.
fn issue_cpu_burst(world: &mut World, now: SimTime, burst: f64) -> SimTime {
    if burst <= 0.0 {
        return now;
    }
    let quantum = world.cfg.cpu_quantum;
    let full = (burst / quantum).floor() as u64;
    let remainder = burst - full as f64 * quantum;
    let mut completion = now;
    for _ in 0..full {
        let (_, end) = world.cpu.acquire(now, quantum);
        completion = completion.max(end);
    }
    if remainder > 1e-12 {
        let (_, end) = world.cpu.acquire(now, remainder);
        completion = completion.max(end);
    }
    completion
}

/// Issues a communication burst on the interconnect; returns completion.
fn issue_comm_burst(world: &mut World, now: SimTime, burst: f64) -> SimTime {
    let service = world.cfg.network.service_time(burst);
    if service <= 0.0 {
        return now;
    }
    let (_, end) = world.net.acquire(now, service);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_model::qcrd::qcrd_application;
    use clio_model::synth::{synth_application, SynthConfig, WorkloadClass};
    use clio_model::{Program, WorkingSet};

    fn single_program_app(io: f64, comm: f64, rho: f64, phases: u32, t_ref: f64) -> Application {
        let p = Program::new("solo", t_ref, vec![WorkingSet::new(io, comm, rho, phases).unwrap()])
            .unwrap();
        Application::new("solo-app", vec![p]).unwrap()
    }

    #[test]
    fn pure_cpu_program_on_one_cpu_takes_demand_time() {
        let app = single_program_app(0.0, 0.0, 0.5, 2, 100.0); // 100s CPU
        let r = simulate(&app, &MachineConfig::uniprocessor());
        assert!((r.makespan - 100.0).abs() < 1e-6, "makespan {}", r.makespan);
        assert!((r.programs[0].cpu_time - 100.0).abs() < 1e-6);
        assert_eq!(r.programs[0].io_time, 0.0);
    }

    #[test]
    fn pure_io_program_on_one_disk_close_to_demand() {
        let app = single_program_app(1.0, 0.0, 0.25, 4, 100.0); // 100s I/O
        let r = simulate(&app, &MachineConfig::uniprocessor());
        // One positioning per burst (4 bursts) on top of 100s transfer.
        assert!(r.makespan >= 100.0);
        assert!(r.makespan < 101.0, "makespan {}", r.makespan);
        assert!(r.programs[0].io_share() > 0.99);
    }

    #[test]
    fn striping_speeds_io_bound_program() {
        let app = single_program_app(1.0, 0.0, 0.25, 4, 100.0);
        let t1 = simulate(&app, &MachineConfig::with_disks(1)).makespan;
        let t8 = simulate(&app, &MachineConfig::with_disks(8)).makespan;
        assert!(t8 < t1 / 4.0, "t1={t1} t8={t8}: striping should help an I/O-bound program");
    }

    #[test]
    fn extra_cpus_speed_cpu_bound_program() {
        let app = single_program_app(0.0, 0.0, 0.5, 2, 100.0);
        let t1 = simulate(&app, &MachineConfig::with_cpus(1)).makespan;
        let t4 = simulate(&app, &MachineConfig::with_cpus(4)).makespan;
        assert!(t4 < t1 / 3.0, "t1={t1} t4={t4}");
    }

    #[test]
    fn extra_disks_do_not_help_cpu_bound_program() {
        let app = single_program_app(0.02, 0.0, 0.5, 2, 100.0);
        let t1 = simulate(&app, &MachineConfig::with_disks(1)).makespan;
        let t32 = simulate(&app, &MachineConfig::with_disks(32)).makespan;
        assert!(t32 > 0.95 * t1, "CPU-bound work is insensitive to disks");
    }

    #[test]
    fn qcrd_program2_more_io_intensive_than_program1() {
        let r = simulate(&qcrd_application(), &MachineConfig::uniprocessor());
        assert!(r.programs[1].io_share() > r.programs[0].io_share());
        assert!(r.programs[0].cpu_share() > 0.5, "program 1 is CPU-dominated");
        assert!(r.programs[1].io_share() > 0.5, "program 2 is I/O-dominated");
    }

    #[test]
    fn qcrd_io_percentage_noticeable() {
        let r = simulate(&qcrd_application(), &MachineConfig::uniprocessor());
        let pct = r.io_percentage();
        assert!(pct > 25.0 && pct < 70.0, "application io% = {pct}");
    }

    #[test]
    fn makespan_at_least_per_program_demand() {
        let r = simulate(&qcrd_application(), &MachineConfig::uniprocessor());
        for p in &r.programs {
            assert!(
                p.finish.seconds() + 1e-9 >= p.demand.total() - 1e-6,
                "{}: finish {} < demand {}",
                p.name,
                p.finish.seconds(),
                p.demand.total()
            );
        }
    }

    #[test]
    fn utilizations_bounded() {
        let r = simulate(&qcrd_application(), &MachineConfig::with_disks(4));
        assert!((0.0..=1.0).contains(&r.cpu_utilization));
        assert!((0.0..=1.0).contains(&r.disk_utilization));
        assert!(r.events > 0);
    }

    #[test]
    fn comm_bound_app_exercises_network() {
        let cfg = SynthConfig { class: WorkloadClass::CommBound, ..Default::default() };
        let app = synth_application(&cfg, "comm-app", 2);
        let r = simulate(&app, &MachineConfig::uniprocessor());
        let total_comm: f64 = r.programs.iter().map(|p| p.comm_time).sum();
        assert!(total_comm > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let app = qcrd_application();
        let m = MachineConfig::with_disks(4);
        let a = simulate(&app, &m);
        let b = simulate(&app, &m);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn invalid_machine_panics() {
        let app = single_program_app(0.5, 0.0, 1.0, 1, 1.0);
        let bad = MachineConfig { cpus: 0, ..MachineConfig::uniprocessor() };
        simulate(&app, &bad);
    }
}
