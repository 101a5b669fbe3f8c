//! The shipped examples must pass the verifier with zero errors, and their
//! effect summaries are pinned as goldens — a drift here means either an
//! example changed or the cost/effect analysis changed, and both deserve a
//! deliberate review.

use symphony_lipscript::parse::parse;
use symphony_lipscript::verify::{verify_image, verify_source};
use symphony_lipscript::Image;

fn vet(path: &str) -> symphony_lipscript::verify::VerifyReport {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    verify_source(&src).unwrap_or_else(|e| panic!("{}", e.render(path)))
}

#[test]
fn examples_verify_with_zero_errors() {
    for path in [
        "../../examples/lipscript/agent.lip",
        "../../examples/lipscript/completion.lip",
        "../../examples/lipscript/parallel.lip",
    ] {
        let report = vet(path);
        assert!(
            report.is_admissible(),
            "{path} has verifier errors: {:?}",
            report.diags
        );
        assert!(
            report.diags.is_empty(),
            "{path} has verifier warnings: {:?}",
            report.diags
        );
    }
}

#[test]
fn agent_effect_summary_golden() {
    let report = vet("../../examples/lipscript/agent.lip");
    assert_eq!(
        report.effects.render(),
        "\
pred: yes
tools: \"echo\"
ipc: no
spawn targets: none
kv open: none
kv link: none
fuel: unbounded
preds: unbounded
spawns: <=0
kv files: <=1
"
    );
}

#[test]
fn completion_effect_summary_golden() {
    let report = vet("../../examples/lipscript/completion.lip");
    assert_eq!(
        report.effects.render(),
        "\
pred: yes
tools: none
ipc: no
spawn targets: none
kv open: none
kv link: none
fuel: unbounded
preds: unbounded
spawns: <=0
kv files: <=1
"
    );
}

#[test]
fn parallel_effect_summary_golden() {
    let report = vet("../../examples/lipscript/parallel.lip");
    assert_eq!(
        report.effects.render(),
        "\
pred: yes
tools: none
ipc: no
spawn targets: \"branch\"
kv open: \"sys_msg.kv\"
kv link: none
fuel: unbounded
preds: <=0
spawns: <=3
kv files: <=3
"
    );
}

/// Where the prelude and its parts live.
const WITH_PRELUDE: &str = "../../examples/lipscript/with_prelude";

/// The prelude every program there is written against.
const PRELUDE: &str = "decode.lip";

/// The files there that are parts other programs bring along.
const PARTS: &[&str] = &[
    "decode_constrained.lip",
    "decode_try.lip",
    "decode_watermark.lip",
    "synthetic.lip",
];

/// Every program there, with the parts it is admitted with (after the
/// prelude, in this order, then its own text), as the experiments and
/// examples that include it concatenate them.
const PROGRAMS: &[(&str, &[&str])] = &[
    ("chat.lip", &[]),
    ("classify.lip", &[]),
    ("constrained.lip", &["decode_constrained.lip"]),
    ("editor.lip", &[]),
    ("fleet_agent.lip", &[]),
    ("multi_agent.lip", &[]),
    ("offload_agent.lip", &["decode_try.lip"]),
    ("offload_background.lip", &[]),
    ("profile.lip", &["synthetic.lip"]),
    ("quickstart.lip", &[]),
    ("rag.lip", &["decode_try.lip"]),
    ("rag_cache.lip", &[]),
    ("retry_agent.lip", &[]),
    ("sched.lip", &["synthetic.lip"]),
    ("speculate.lip", &[]),
    ("speculative.lip", &[]),
    ("system_prompt_agent.lip", &[]),
    ("toolcalls.lip", &[]),
    ("tot.lip", &[]),
    ("tree_of_thought.lip", &[]),
    ("watermark.lip", &["decode_watermark.lip"]),
];

/// Every E-series and example program passes the serving door's verifier
/// as the door runs it (`ServerCore` verifies the image the machine will
/// run): the text a client would send parses, and the report has no
/// error-level finding.
#[test]
fn every_program_with_the_prelude_passes_the_door() {
    let read = |name: &str| {
        let path = format!("{WITH_PRELUDE}/{name}");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let mut listed: Vec<&str> = PROGRAMS.iter().map(|(name, _)| *name).collect();
    listed.extend(PARTS);
    listed.push(PRELUDE);
    listed.sort_unstable();
    let mut on_disk: Vec<String> = std::fs::read_dir(WITH_PRELUDE)
        .expect("the programs' directory")
        .map(|entry| entry.expect("an entry").file_name().into_string().expect("utf-8"))
        .filter(|name| name.ends_with(".lip"))
        .collect();
    on_disk.sort_unstable();
    assert_eq!(listed, on_disk, "a program or part is missing from the table");

    for (name, parts) in PROGRAMS {
        let mut source = read(PRELUDE);
        for part in *parts {
            source.push_str(&read(part));
        }
        source.push_str(&read(name));
        let program = parse(&source).unwrap_or_else(|e| panic!("{}", e.render(name)));
        let report = verify_image(&Image::shared(&program));
        assert!(
            report.first_error().is_none(),
            "the door rejects {name}: {:?}",
            report.diags
        );
    }
}
