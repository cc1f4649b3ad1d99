//! `e2e` — the repository's end-to-end benchmark.
//!
//! Starts the real `ecrpq-serve` binary as a child, feeds it only seeded,
//! generated inputs over loopback TCP, checks every reply, and prints every
//! metric by name. See `benchmarks/e2e/README.md`.
//!
//! ```text
//! e2e [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] [--smoke]
//!     [--out-dir DIR] [--server-bin PATH]
//! e2e --write-golden [--out-dir DIR] [--server-bin PATH]
//! e2e agree A.json B.json
//! ```
//!
//! With `--workload` and `--trace` it runs one pass and ends with the
//! one-line JSON result; without them it runs every workload, untraced and
//! traced, and writes `<out-dir>/result_<seed>.json`.

mod gen;
mod report;
mod server;
mod stats;
mod traced;
mod verify;
mod workloads;

use gen::Workload;
use report::{RunResult, Spec};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::Ctx;

/// Removes the per-run scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn one_pass(ctx: &Ctx, w: Workload, trace: u8, out_dir: &Path) -> Result<RunResult, String> {
    let (pass, metrics) = if trace == 0 {
        let pass = workloads::run_pass(ctx, w, false)?;
        let metrics = workloads::end_to_end(w, ctx.seconds, &pass);
        (pass, metrics)
    } else {
        // Half the time goes to an untraced window whose counters are read
        // over the wire, the rest to trace replays and in-process calls.
        let ctx = Ctx { setup_reps: 1, seconds: ctx.seconds / 2.0, ..ctx.clone() };
        let mut pass = workloads::run_pass(&ctx, w, true)?;
        let budget = Duration::from_secs_f64(ctx.seconds / 2.0);
        let traced = traced::layers(&ctx, w, &mut pass, budget)?;
        for row in &traced.table {
            println!("{row}");
        }
        let path = out_dir.join(format!("trace_{}.json", w.name()));
        std::fs::write(&path, traced.detail.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        (pass, traced.metrics)
    };
    Ok(RunResult {
        workload: w.name(),
        trace,
        attempted: pass.rec.attempted,
        failed: pass.rec.failed,
        classes: pass.rec.class_medians(),
        errors: pass.rec.errors,
        metrics,
    })
}

fn write_golden(ctx: &Ctx, out_dir: &Path) -> Result<(), String> {
    let ctx = Ctx {
        seed: verify::GOLDEN_SEED,
        seconds: 5.0,
        setup_reps: 1,
        ignore_golden: true,
        ..ctx.clone()
    };
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let pass = workloads::run_pass(&ctx, w, false)?;
        if pass.rec.failed > 0 {
            return Err(format!("{}: {}", w.name(), pass.rec.errors.join("; ")));
        }
        if w == Workload::ServeRw
            && (0..gen::RW_BATCHES).any(|i| pass.expected.get(&format!("q@batch{i}")).is_none())
        {
            return Err("serve_rw did not cycle through every batch".into());
        }
        entries.push((w.name(), pass.expected.to_golden()));
    }
    let path = out_dir.parent().unwrap_or(out_dir).join("golden_seed42.json");
    let text = ecrpq_util::json::Value::obj(entries).to_string().replace("],", "],\n ");
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {} — rebuild for it to take effect", path.display());
    Ok(())
}

fn value_of(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} expects a value"))
}

fn run() -> Result<bool, String> {
    let spec = Spec::load();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("agree") {
        let files: Vec<String> = args.skip(1).collect();
        let [a, b] = files.as_slice() else {
            return Err("usage: e2e agree A.json B.json".into());
        };
        let read =
            |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
        let (report, all_agree) = report::agree(&spec, &read(a)?, &read(b)?)?;
        print!("{report}");
        return Ok(all_agree);
    }

    let (mut workload, mut trace, mut golden) = (None, None, false);
    let mut seed = verify::GOLDEN_SEED;
    let mut seconds = spec.run_seconds;
    let mut setup_reps = 3;
    let mut out_dir = PathBuf::from("benchmarks/e2e/out");
    let mut server_bin =
        std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("ecrpq-serve");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let name = value_of(&mut args, "--workload")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--trace" => {
                trace = Some(match value_of(&mut args, "--trace")?.as_str() {
                    "0" => 0u8,
                    "1" => 1,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                })
            }
            "--seed" => {
                seed = value_of(&mut args, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer")?
            }
            "--seconds" => {
                seconds = value_of(&mut args, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // Same inputs and the same checks on every reply; only the
            // windows shrink and set-up runs once.
            "--smoke" => (seconds, setup_reps) = (2.0, 1),
            "--out-dir" => out_dir = PathBuf::from(value_of(&mut args, "--out-dir")?),
            "--server-bin" => server_bin = PathBuf::from(value_of(&mut args, "--server-bin")?),
            "--write-golden" => golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !server_bin.is_file() {
        return Err(format!(
            "no server binary at {} (build `ecrpq-serve` first)",
            server_bin.display()
        ));
    }

    let scratch = Scratch(out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let tmp = scratch.0.canonicalize().map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx { server_bin, tmp, nproc, seed, seconds, setup_reps, ignore_golden: false };
    if golden {
        return write_golden(&ctx, &out_dir).map(|()| true);
    }

    // Without `--workload`: the workloads `BENCHMARK.json` declares.
    let declared = spec.workloads.iter().filter_map(|name| Workload::from_name(name));
    let workloads = workload.map_or(declared.collect(), |w| vec![w]);
    let traces = trace.map_or(vec![0, 1], |t| vec![t]);
    let mut runs = Vec::new();
    for &w in &workloads {
        for &t in &traces {
            let result = one_pass(&ctx, w, t, &out_dir)?;
            result.print_table(&spec);
            println!("{}", result.contract_line(&spec));
            runs.push(result);
        }
    }
    if runs.len() > 1 {
        let meta = std::env::var("E2E_META").ok().and_then(|m| ecrpq_util::json::parse(&m).ok());
        let meta = meta.unwrap_or(ecrpq_util::json::Value::Null);
        let path = out_dir.join(format!("result_{seed}.json"));
        std::fs::write(&path, report::result_document(&spec, seed, seconds, meta, &runs))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(runs.iter().all(RunResult::correct))
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs all four workloads, both passes, at smoke size against a real
    /// server — when one was built into the same target directory.
    #[test]
    fn smoke_all_workloads_against_a_built_server() {
        // Test executables live in `<target>/<profile>/deps/`.
        let exe = std::env::current_exe().unwrap();
        let server_bin = exe.parent().and_then(Path::parent).map(|p| p.join("ecrpq-serve"));
        let Some(server_bin) = server_bin.filter(|p| p.is_file()) else {
            eprintln!(
                "skipped: no ecrpq-serve beside {} (build it into the same target dir)",
                exe.display()
            );
            return;
        };
        let out_dir = std::env::temp_dir().join(format!("e2e-smoke-{}", std::process::id()));
        let scratch = Scratch(out_dir.clone());
        std::fs::create_dir_all(&scratch.0).unwrap();
        let ctx = Ctx {
            server_bin,
            tmp: out_dir.clone(),
            nproc: 2,
            seed: 7,
            seconds: 0.5,
            setup_reps: 1,
            ignore_golden: false,
        };
        let spec = Spec::load();
        for w in Workload::ALL {
            for trace in [0, 1] {
                let r = one_pass(&ctx, w, trace, &out_dir).unwrap();
                assert!(r.correct(), "{} failed: {:?}", w.name(), r.errors);
                let declared = if trace == 0 { &spec.end_to_end } else { &spec.per_layer };
                let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, declared.iter().map(|d| d.name.as_str()).collect::<Vec<_>>());
                if trace == 0 {
                    assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}: a zero metric", w.name());
                }
            }
        }
    }
}
