//! Golden pins for the two trace simulators: literal report fields for
//! fixed workloads, machines, scheduling policies and fault plans.
//!
//! Every other simulator pin in this repo is self-referential (builder
//! == canonical function, run == rerun, pooled == serial): when the
//! process driver or a disk array is refactored both sides move
//! together and the pin still passes. The literals below do not move.
//! They were recorded at commit cd0c52c, before the FCFS and
//! queued-scheduler worlds were folded into one process driver, and
//! must survive any change that claims to keep closed-loop `TraceSim`
//! and every `ScheduledSim` run bit-identical — event count included.
//!
//! Everything is driven through `Experiment::builder()`, so this file
//! does not depend on how the simulators' own entry points are spelled.
//!
//! Three workloads, 600 data operations per synthetic component:
//! `synth` (one process), `mix:zipf:0.9,rand` (two processes with
//! disjoint files), and that mix mixed again with `mix:seq,hot:0.1x0.9`
//! (four processes — with fewer than three a disk queue never holds a
//! choice, and the scheduling policy cannot show).
//!
//! - `TraceSim`, closed loop, on 1, 2 and 4 disks;
//! - `ScheduledSim` on 2 disks under every [`Policy`], each with a
//!   healthy disk, with `fault:slow@0-1x8+err@64`, and with that plan
//!   and `max_retries: 0` (failed requests are dropped, not retried).

use clio_core::prelude::*;
use clio_core::sim::sched::Policy;

const DATA_OPS: usize = 600;
const FAULTS: &str = "fault:slow@0-1x8+err@64:synth";

fn workloads() -> [Workload; 3] {
    let parse = |spec| Workload::parse(spec).expect("golden spec parses");
    let mut all = [
        parse("synth"),
        parse("mix:zipf:0.9,rand"),
        Workload::mix(parse("mix:zipf:0.9,rand"), parse("mix:seq,hot:0.1x0.9")),
    ];
    all.iter_mut().for_each(|w| w.scale_data_ops(DATA_OPS));
    all
}

/// `[makespan.to_bits(), disk_utilization.to_bits(), events, records,
/// bytes_moved, retries, dropped_requests, process_finish bits…]`.
fn row(builder: ExperimentBuilder) -> Vec<u64> {
    let sim = builder
        .build()
        .expect("golden experiment is valid")
        .run()
        .expect("golden experiment runs")
        .sim
        .expect("the simulators fill the sim section");
    let mut row = vec![
        sim.makespan.to_bits(),
        sim.disk_utilization.to_bits(),
        sim.events,
        sim.records,
        sim.bytes_moved,
        sim.retries,
        sim.dropped_requests,
    ];
    row.extend(sim.process_finish.iter().map(|f| f.to_bits()));
    row
}

fn trace_sim_rows() -> Vec<Vec<u64>> {
    let mut rows = Vec::new();
    for workload in workloads() {
        for disks in [1, 2, 4] {
            rows.push(row(Experiment::builder()
                .workload(workload.clone())
                .engine(Engine::TraceSim)
                .machine(MachineConfig::with_disks(disks))));
        }
    }
    rows
}

fn scheduled_sim_rows() -> Vec<Vec<u64>> {
    let plan = Scenario::parse(FAULTS).expect("golden fault spec parses").faults;
    let conditions =
        [DiskFaultPlan::default(), plan.clone(), DiskFaultPlan { max_retries: 0, ..plan }];
    let mut rows = Vec::new();
    for workload in workloads() {
        for policy in Policy::ALL {
            for faults in &conditions {
                rows.push(row(Experiment::builder()
                    .workload(workload.clone())
                    .engine(Engine::ScheduledSim)
                    .machine(MachineConfig::with_disks(2))
                    .sched_policy(policy)
                    .disk_faults(faults.clone())));
            }
        }
    }
    rows
}

/// Workload-major, then 1, 2, 4 disks.
#[rustfmt::skip]
const TRACE_SIM_GOLDEN: &[&[u64]] = &[
    // synth
    &[4620985027265668946, 4607180007958113074, 715, 714, 38339208, 0, 0, 4620985027265668946],
    &[4620834702135240540, 4604234047430364636, 715, 714, 38339208, 0, 0, 4620834702135240540],
    &[4620766771295030736, 4600929205861122847, 715, 714, 38339208, 0, 0, 4620766771295030736],
    // mix:zipf:0.9,rand
    &[4625804943439421483, 4607182398960915541, 1870, 1868, 124002837, 0, 0, 4625801377111201241, 4625804943439421483],
    &[4623022826525698232, 4606511537948711542, 1870, 1868, 124002837, 0, 0, 4623022826525698232, 4622982936190370176],
    &[4621999932551853226, 4604041896165974516, 1870, 1868, 124002837, 0, 0, 4621999932551853226, 4621968948976316132],
    // mix(mix:zipf:0.9,rand, mix:seq,hot:0.1x0.9)
    &[4630279121776707487, 4607182408823042527, 3178, 3174, 239239124, 0, 0, 4630273288647571492, 4630275511596200064, 4630279121776707487, 4630277338612597366],
    &[4627961855854423654, 4606965619470428378, 3178, 3174, 239239124, 0, 0, 4627605313612486628, 4627961855854423654, 4627381063264849326, 4627537835512929186],
    &[4624920926281295722, 4606405436209408861, 3178, 3174, 239239124, 0, 0, 4624840073466006571, 4624920926281295722, 4624786003931891830, 4624824857797658952],
];

/// Workload-major, then [`Policy::ALL`] order, then healthy / faulted /
/// faulted with no retry budget.
#[rustfmt::skip]
const SCHEDULED_SIM_GOLDEN: &[&[u64]] = &[
    // synth, FCFS
    &[4617335456155071086, 4604224412168311322, 1519, 714, 38339208, 0, 0, 4617335456155071086],
    &[4618443861208688944, 4604111836377974431, 1531, 714, 38339208, 12, 0, 4618443861208688944],
    &[4618356672912237843, 4604137389840112320, 1519, 714, 38339208, 0, 12, 4618356672912237843],
    // synth, SSTF
    &[4617335456155071086, 4604224412168311322, 1519, 714, 38339208, 0, 0, 4617335456155071086],
    &[4618443861208688944, 4604111836377974431, 1531, 714, 38339208, 12, 0, 4618443861208688944],
    &[4618356672912237843, 4604137389840112320, 1519, 714, 38339208, 0, 12, 4618356672912237843],
    // synth, SCAN
    &[4617335456155071086, 4604224412168311322, 1519, 714, 38339208, 0, 0, 4617335456155071086],
    &[4618443861208688944, 4604111836377974431, 1531, 714, 38339208, 12, 0, 4618443861208688944],
    &[4618356672912237843, 4604137389840112320, 1519, 714, 38339208, 0, 12, 4618356672912237843],
    // synth, C-LOOK
    &[4617335456155071086, 4604224412168311322, 1519, 714, 38339208, 0, 0, 4617335456155071086],
    &[4618443861208688944, 4604111836377974431, 1531, 714, 38339208, 12, 0, 4618443861208688944],
    &[4618356672912237843, 4604137389840112320, 1519, 714, 38339208, 0, 12, 4618356672912237843],
    // mix:zipf:0.9,rand, FCFS
    &[4624781690091274822, 4604028866989326817, 3410, 1868, 124002837, 0, 0, 4624774756181658909, 4624781690091274822],
    &[4625296297095494118, 4604001225973262603, 3433, 1868, 124002837, 23, 0, 4625292830140686162, 4625296297095494118],
    &[4625264903191075907, 4604006624576682631, 3410, 1868, 124002837, 0, 23, 4625261436236267951, 4625264903191075907],
    // mix:zipf:0.9,rand, SSTF
    &[4624781690091274822, 4604028866989326817, 3410, 1868, 124002837, 0, 0, 4624774756181658909, 4624781690091274822],
    &[4625296297095494118, 4604001225973262603, 3433, 1868, 124002837, 23, 0, 4625292830140686162, 4625296297095494118],
    &[4625264903191075907, 4604006624576682631, 3410, 1868, 124002837, 0, 23, 4625261436236267951, 4625264903191075907],
    // mix:zipf:0.9,rand, SCAN
    &[4624781690091274822, 4604028866989326817, 3410, 1868, 124002837, 0, 0, 4624774756181658909, 4624781690091274822],
    &[4625296297095494118, 4604001225973262603, 3433, 1868, 124002837, 23, 0, 4625292830140686162, 4625296297095494118],
    &[4625264903191075907, 4604006624576682631, 3410, 1868, 124002837, 0, 23, 4625261436236267951, 4625264903191075907],
    // mix:zipf:0.9,rand, C-LOOK
    &[4624781690091274822, 4604028866989326817, 3410, 1868, 124002837, 0, 0, 4624774756181658909, 4624781690091274822],
    &[4625296297095494118, 4604001225973262603, 3433, 1868, 124002837, 23, 0, 4625292830140686162, 4625296297095494118],
    &[4625264903191075907, 4604006624576682631, 3410, 1868, 124002837, 0, 23, 4625261436236267951, 4625264903191075907],
    // mix(mix:zipf:0.9,rand, mix:seq,hot:0.1x0.9), FCFS
    &[4628293342957554315, 4604736494676873920, 6706, 3174, 239239124, 0, 0, 4628284791401229313, 4628287605506616133, 4628293342957554315, 4628289915717026685],
    &[4628626712081701616, 4604717804702485474, 6760, 3174, 239239124, 54, 0, 4628618160525376614, 4628620974630763434, 4628626712081701616, 4628623284841173986],
    &[4628564073626884731, 4604724571652260168, 6706, 3174, 239239124, 0, 54, 4628555522070559729, 4628558336175946549, 4628564073626884731, 4628560646386357101],
    // mix(mix:zipf:0.9,rand, mix:seq,hot:0.1x0.9), SSTF
    &[4628118656296400275, 4604657485193354244, 6706, 3174, 239239124, 0, 0, 4628118656296400275, 4622908901516352446, 4628110401720157862, 4622628271486159564],
    &[4628448217909921993, 4604679258992954239, 6760, 3174, 239239124, 54, 0, 4628448217909921993, 4623477458017363653, 4628437160568852298, 4623196827987170771],
    &[4628367194306598976, 4604683947534749171, 6706, 3174, 239239124, 0, 54, 4628367194306598976, 4623405977536749847, 4628358939730356563, 4623125347506556965],
    // mix(mix:zipf:0.9,rand, mix:seq,hot:0.1x0.9), SCAN
    &[4628023974514552357, 4604769623601848197, 6706, 3174, 239239124, 0, 0, 4627873546133337673, 4627089012520144559, 4628023974514552357, 4626599817076241345],
    &[4628376341036464369, 4604747150900223198, 6760, 3174, 239239124, 54, 0, 4628220059383108987, 4627422682773819770, 4628376341036464369, 4626929697269355146],
    &[4628284383667016096, 4604758922590676275, 6706, 3174, 239239124, 0, 54, 4628133955285801412, 4627349421672608298, 4628284383667016096, 4626860226228705084],
    // mix(mix:zipf:0.9,rand, mix:seq,hot:0.1x0.9), C-LOOK
    &[4628176151756247541, 4604764058793226334, 6706, 3174, 239239124, 0, 0, 4628085871368210657, 4628176151756247541, 4627914234637082278, 4628121722248600723],
    &[4628499977719282949, 4604746780425258738, 6760, 3174, 239239124, 54, 0, 4628407802300965360, 4628499977719282949, 4628234270539556276, 4628445548211636131],
    &[4628428929913116197, 4604755802078311299, 6706, 3174, 239239124, 0, 54, 4628338649525079313, 4628428929913116197, 4628167012793950934, 4628374500405469379],
];

/// On a mismatch print the whole table in the literal's own syntax:
/// the diff against the constant is the finding.
fn assert_golden(what: &str, got: &[Vec<u64>], golden: &[&[u64]]) {
    let table: String = got.iter().map(|row| format!("    &{row:?},\n")).collect();
    let same = got.len() == golden.len() && got.iter().zip(golden).all(|(g, l)| g == l);
    assert!(same, "{what} golden literals moved; measured table:\n{table}");
}

#[test]
fn the_runs_exercise_every_path_they_claim_to() {
    let trace_sim = trace_sim_rows();
    let scheduled = scheduled_sim_rows();
    // One, two and four processes.
    assert_eq!(trace_sim[0].len(), 7 + 1);
    assert_eq!(trace_sim[3].len(), 7 + 2);
    assert_eq!(trace_sim[6].len(), 7 + 4);
    // More disks shorten the closed-loop makespan.
    assert!(f64::from_bits(trace_sim[2][0]) < f64::from_bits(trace_sim[0][0]));
    // Healthy rows see no fault, faulted rows retry and drop nothing,
    // zero-budget rows drop and never retry — under every policy.
    for triple in scheduled.chunks(3) {
        let [healthy, faulted, dropped] = triple else { panic!("three conditions per policy") };
        assert_eq!((healthy[5], healthy[6]), (0, 0));
        assert!(faulted[5] > 0 && faulted[6] == 0);
        assert!(dropped[5] == 0 && dropped[6] > 0);
        assert!(f64::from_bits(faulted[0]) > f64::from_bits(healthy[0]), "faults cost time");
    }
    // The scheduling policy shows on the four-process mix: no two
    // policies finish it at the same instant.
    let mut makespans: Vec<u64> = scheduled[24..].chunks(3).map(|t| t[0][0]).collect();
    makespans.sort_unstable();
    makespans.dedup();
    assert_eq!(makespans.len(), Policy::ALL.len(), "every policy orders the queue its own way");
}

#[test]
fn trace_sim_matches_the_recorded_literals() {
    assert_golden("TraceSim", &trace_sim_rows(), TRACE_SIM_GOLDEN);
}

#[test]
fn scheduled_sim_matches_the_recorded_literals() {
    assert_golden("ScheduledSim", &scheduled_sim_rows(), SCHEDULED_SIM_GOLDEN);
}
