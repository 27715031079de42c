//! Golden outputs: exact deterministic counts and stable-report bytes
//! for the bench worlds, the `scenarios --smoke` matrix, one Fig. 4
//! scenario cell and a Fig. 4 table load, pinned under both serial
//! schedulers. A kernel or plumbing refactor must leave every
//! value here untouched; a change that legitimately moves one has to
//! re-pin it and explain why.

use sc_bench::churn::{build_churn_world, run_churn, ChurnParams};
use sc_bench::fwd::{build_forwarding_world, run_forwarding, FwdParams};
use sc_bench::replay::{build_replay_world, run_replay, ReplayParams};
use sc_lab::Mode;
use sc_mrt::TimeScale;
use sc_net::SimDuration;
use sc_router::LegacyRouter;
use sc_scenarios::{
    build_scenario, run_scenario, run_suite, EventScript, ScenarioConfig, SuiteConfig, SuiteReport,
    TopologySpec,
};
use sc_sim::SchedulerKind;
use sc_traffic::TrafficSink;

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::ReferenceHeap, SchedulerKind::TimerWheel];

/// The churn unit tests' `tiny()` world. Built by field assignment on
/// the smoke preset so the pin does not depend on the full field list.
fn churn_tiny(scheduler: SchedulerKind) -> ChurnParams {
    let mut p = ChurnParams::smoke();
    p.prefixes = 300;
    p.providers = 2;
    p.bursts = 20;
    p.burst_prefixes = 50;
    p.interval = SimDuration::from_millis(2);
    p.bfd_interval = SimDuration::from_millis(5);
    p.seed = 7;
    p.scheduler = scheduler;
    p
}

/// The replay unit tests' `tiny()` world, built the same way.
fn replay_tiny(scheduler: SchedulerKind) -> ReplayParams {
    let mut p = ReplayParams::smoke();
    p.prefixes = 300;
    p.providers = 2;
    p.bursts = 20;
    p.burst_prefixes = 25;
    p.burst_gap_us = 5_000;
    p.bfd_interval = SimDuration::from_millis(5);
    p.time_scale = TimeScale::REAL;
    p.seed = 7;
    p.scheduler = scheduler;
    p
}

#[test]
fn churn_tiny_counts_are_pinned() {
    for sched in SCHEDULERS {
        let mut cw = build_churn_world(churn_tiny(sched));
        let m = run_churn(&mut cw);
        assert_eq!(
            (m.events, m.updates_processed, m.fib_ops_applied),
            (3012, 85, 2430),
            "{sched:?}"
        );
    }
}

#[test]
fn replay_tiny_counts_are_pinned() {
    for sched in SCHEDULERS {
        let mut rw = build_replay_world(&replay_tiny(sched));
        let m = run_replay(&mut rw);
        assert_eq!(
            (m.events, m.updates_processed, m.fib_ops_applied),
            (3869, 199, 1314),
            "{sched:?}"
        );
    }
}

const FIG4_CUT_STABLE_CSV: &str = concat!(
    "topology,script,mode,prefixes,flows,rate_pps,median_us,p95_us,max_us,mean_us,unrecovered,detection_us,flow_rewrites,cycles,cycle_median_us,cycle_p95_us,cycle_unrecovered,events,events_per_sec,viol_blackhole_us,viol_loop_us,viol_transit_us,degraded_us,flowmod_retries,detect_us,notify_us,program_us,fib_us,error\n",
    "fig4,primary-cut,legacy,300,10,14000,401940,437195,443590,400043,0,74463,,1,401940,437195,0,1360567,,,,,,,,,,,\n",
    "fig4,primary-cut,supercharged,300,10,14000,102060,102060,102060,98518,0,83942,1,1,102060,102060,0,1152169,,,,,0,0,,,,,\n",
);

#[test]
fn fig4_primary_cut_stable_report_is_pinned() {
    for sched in SCHEDULERS {
        let cfg = ScenarioConfig {
            prefixes: 300,
            flows: 10,
            seed: 11,
            scheduler: sched,
            ..ScenarioConfig::default()
        };
        let rows: Vec<_> = [Mode::Stock, Mode::Supercharged]
            .into_iter()
            .map(|mode| {
                run_scenario(
                    &TopologySpec::Fig4Lab,
                    &EventScript::primary_cut(),
                    mode,
                    &cfg,
                )
            })
            .collect();
        // Supercharged events were 1,152,180 while the controller's
        // timers cleared their armed marker on stale fires and bred
        // duplicate wakeups (see `sc_sim::Wakeup::fired`).
        let events: Vec<u64> = rows.iter().map(|r| r.events_processed).collect();
        assert_eq!(events, [1_360_567, 1_152_169], "{sched:?}");
        let report = SuiteReport {
            rows,
            errors: Vec::new(),
        };
        assert_eq!(report.to_csv_stable(), FIG4_CUT_STABLE_CSV, "{sched:?}");
    }
}

#[test]
fn fwd_smoke_counts_are_pinned() {
    for sched in SCHEDULERS {
        let mut p = FwdParams::smoke();
        p.scheduler = sched;
        let mut fw = build_forwarding_world(p);
        let m = run_forwarding(&mut fw);
        let sink = fw.world.node::<TrafficSink>(fw.sink);
        let delivered: u64 = sink.report().iter().map(|f| f.packets).sum();
        assert_eq!(
            (m.events, m.packets_sent, m.packets_forwarded, delivered),
            (143_541, 70_020, 70_020, 70_020),
            "{sched:?}"
        );
        assert_eq!(sink.unexpected_packets, 0, "{sched:?}");
    }
}

/// The `scenarios --smoke` matrix: chain2x1, primary cut and a 2-cycle
/// primary flap, both modes, 300 prefixes, 10 flows, seed 42.
fn smoke_suite(scheduler: SchedulerKind) -> SuiteConfig {
    SuiteConfig {
        topologies: vec![TopologySpec::Chain {
            providers: 2,
            hops: 1,
        }],
        scripts: vec![
            EventScript::primary_cut(),
            EventScript::primary_flap(SimDuration::from_secs(3), 2),
        ],
        modes: vec![Mode::Stock, Mode::Supercharged],
        base: ScenarioConfig {
            prefixes: 300,
            flows: 10,
            seed: 42,
            scheduler,
            ..ScenarioConfig::default()
        },
        workers: None,
    }
}

/// `scenarios --smoke --stable-csv` output, byte for byte. The
/// supercharged `events` cells were 1,369,108 (cut) and 5,176,111
/// (flap) while the controller bred duplicate timers on stale fires.
const SMOKE_STABLE_CSV: &str = concat!(
    "topology,script,mode,prefixes,flows,rate_pps,median_us,p95_us,max_us,mean_us,unrecovered,detection_us,flow_rewrites,cycles,cycle_median_us,cycle_p95_us,cycle_unrecovered,events,events_per_sec,viol_blackhole_us,viol_loop_us,viol_transit_us,degraded_us,flowmod_retries,detect_us,notify_us,program_us,fib_us,error\n",
    "chain2x1,primary-cut,legacy,300,10,14000,421330,440037,443660,410074,0,74463,,1,421330,440037,0,1569673,,,,,,,,,,,\n",
    "chain2x1,primary-cut,supercharged,300,10,14000,102060,102060,102060,99127,0,83942,1,1,102060,102060,0,1369097,,,,,0,0,,,,,\n",
    "chain2x1,primary-flap,legacy,300,10,14000,421330,440037,443660,410074,0,74463,,2,421330;419335,440037;438455,0;0,5357253,,,,,,,,,,,\n",
    "chain2x1,primary-flap,supercharged,300,10,14000,102060,102060,102060,99127,0,83942,1,2,102060;93450,102060;93450,0;0,5175993,,,,,0;0,0,,,,,\n",
);

#[test]
fn smoke_matrix_stable_report_is_pinned() {
    for sched in SCHEDULERS {
        let report = run_suite(&smoke_suite(sched));
        assert!(report.errors.is_empty(), "{sched:?}: {:?}", report.errors);
        assert_eq!(report.to_csv_stable(), SMOKE_STABLE_CSV, "{sched:?}");
    }
}

#[test]
fn fig4_table_load_counts_are_pinned() {
    for sched in SCHEDULERS {
        let cfg = ScenarioConfig {
            prefixes: 10_000,
            seed: 5,
            scheduler: sched,
            ..ScenarioConfig::default()
        };
        let mut scn = build_scenario(&TopologySpec::Fig4Lab, Mode::Supercharged, &cfg);
        scn.run_until_converged();
        let r1 = scn.world.node::<LegacyRouter>(scn.r1);
        assert_eq!(
            (
                scn.world.stats().events_processed,
                r1.stats.updates_processed,
                r1.walker().ops_applied
            ),
            // Events were 29,123 while the controller bred duplicate
            // timers on stale fires.
            (28_860, 896, 20_000),
            "{sched:?}"
        );
    }
}
