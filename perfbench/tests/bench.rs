//! The benchmark's own tests, at tiny sizes.

use naspipe_core::train::{replay_training, TrainConfig};
use naspipe_obs::{parse_json, JsonValue};
use naspipe_perfbench::e2e::{drive, sample_setup};
use naspipe_perfbench::layers::{drive_replay_calls, REPLAY_CALLS};
use naspipe_perfbench::measure::RunResult;
use naspipe_perfbench::workload::{Reference, Workload, WORKLOADS};
use naspipe_perfbench::{e2e, layers};
use std::collections::BTreeSet;

/// Metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn names(r: &RunResult) -> BTreeSet<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn declared_workloads_are_the_built_in_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let declared: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let built_in: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, built_in);
}

#[test]
fn every_workload_runs_untraced_at_a_tiny_size() {
    for w in WORKLOADS {
        let r = e2e::run(&w.tiny(), 1, 0.0).unwrap();
        assert!(r.correct(), "{}: {r:?}", w.name);
        assert_eq!(r.attempted, 24 * e2e::MIN_REPS as u64, "{}", w.name);
        assert_eq!(names(&r), declared("end_to_end"), "{}", w.name);
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}: {r:?}", w.name);
    }
}

#[test]
fn every_workload_runs_traced_at_a_tiny_size() {
    for w in WORKLOADS {
        let r = layers::run(&w.tiny(), 1).unwrap();
        assert!(r.correct(), "{}: {r:?}", w.name);
        assert!(r.attempted > 0);
        assert_eq!(names(&r), declared("per_layer"), "{}", w.name);
    }
}

#[test]
fn a_planted_hash_mismatch_fails_every_subnet() {
    for w in WORKLOADS {
        let inputs = sample_setup(&w.tiny(), 3, &mut Vec::new(), 0.0, 1).unwrap();
        let mut reference = Reference::compute(&inputs.space, &inputs.subnets, &inputs.train);
        let clean = drive(&inputs, &reference, 0.0, &mut || {});
        assert_eq!(clean.failed, 0, "{}", w.name);
        reference.hash ^= 1;
        let planted = drive(&inputs, &reference, 0.0, &mut || {});
        assert!(planted.attempted > 0);
        assert_eq!(planted.failed, planted.attempted, "{}", w.name);
    }
}

#[test]
fn driven_replay_calls_end_at_the_untraced_hash() {
    let w = Workload::by_name("replay-wide").unwrap().tiny();
    let inputs = sample_setup(&w, 5, &mut Vec::new(), 0.0, 1).unwrap();
    let schedule = inputs.schedule.as_ref().unwrap();
    let untraced = replay_training(&inputs.space, schedule, &inputs.train);
    let driven = drive_replay_calls(&inputs.space, schedule, &inputs.train);
    assert_eq!(driven.final_hash, untraced.final_hash);
    // Every timed call ran, and the spans cover no more than the pass.
    for name in REPLAY_CALLS {
        assert!(driven.spans.secs(name) > 0.0, "{name} was not timed");
    }
    assert!(driven.spans.total_secs() <= driven.wall);
    // A different numeric seed trains different parameters: the guard
    // compares something that can differ.
    let other = TrainConfig {
        seed: 99,
        ..inputs.train
    };
    assert_ne!(
        drive_replay_calls(&inputs.space, schedule, &other).final_hash,
        untraced.final_hash
    );
}

#[test]
fn the_numeric_children_and_residual_sum_to_the_replay() {
    let r = layers::run(&Workload::by_name("replay-wide").unwrap().tiny(), 2).unwrap();
    let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
    let children: f64 = REPLAY_CALLS.iter().map(|n| value(n)).sum();
    let parent = value("core.train.replay_s");
    assert!((children + value("core.train.residual_s") - parent).abs() < 1e-9);
}

#[test]
fn a_second_seed_gives_the_same_metric_set_on_other_inputs() {
    let w = Workload::by_name("des-csp-deep").unwrap().tiny();
    let a = e2e::run(&w, 1, 0.0).unwrap();
    let b = e2e::run(&w, 2, 0.0).unwrap();
    assert_eq!(names(&a), names(&b));
    let sim = |r: &RunResult| {
        r.metrics
            .iter()
            .find(|m| m.name == "sim_samples_per_s")
            .unwrap()
            .value
    };
    assert_ne!(sim(&a), sim(&b), "the seed must change the subnet stream");
}

#[test]
fn the_cli_rejects_bad_arguments_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_naspipe-perfbench");
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "replay-wide", "--trace", "2"],
        vec!["--workload", "replay-wide", "--seconds", "-1"],
    ] {
        let out = std::process::Command::new(bin)
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
