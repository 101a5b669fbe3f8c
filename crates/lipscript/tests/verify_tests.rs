//! Unit coverage for the admission-time verifier: every pass, every
//! diagnostic code, the severity policy, and the cost algebra.

use symphony_lipscript::ast::Program;
use symphony_lipscript::verify::{
    verify, verify_source, Bound, DiagCode, Severity, VerifyReport,
};

mod harness;

fn vet(src: &str) -> VerifyReport {
    verify_source(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"))
}

fn codes(r: &VerifyReport) -> Vec<(DiagCode, Severity)> {
    r.diags.iter().map(|d| (d.code, d.severity)).collect()
}

// ---------------------------------------------------------------------------
// Pass 1: resolution & arity
// ---------------------------------------------------------------------------

#[test]
fn undefined_variable_in_straight_line_code_is_error() {
    let r = vet("let x = missing + 1;");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Error)]
    );
    assert!(!r.is_admissible());
}

#[test]
fn assignment_to_undeclared_variable_is_error() {
    let r = vet("x = 1;");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedVar, Severity::Error)]);
}

#[test]
fn branch_local_declaration_does_not_leak() {
    // `let` inside a branch is popped with the scope; the later use is
    // exactly the "assigned on some paths only" case from the issue.
    let r = vet("let c = 1; if (c) { let x = 2; } let y = x;");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedVar, Severity::Error)]);
}

#[test]
fn undefined_function_is_error() {
    let r = vet("let x = nope(1);");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedFn, Severity::Error)]);
}

#[test]
fn builtin_arity_mismatch_is_error() {
    let r = vet("let x = len();");
    assert_eq!(codes(&r), vec![(DiagCode::BadArity, Severity::Error)]);
}

#[test]
fn user_fn_arity_mismatch_is_error() {
    let r = vet("fn f(a, b) { return a; } let x = f(1);");
    assert_eq!(codes(&r), vec![(DiagCode::BadArity, Severity::Error)]);
}

#[test]
fn unresolved_spawn_target_is_error() {
    let r = vet("let t = spawn(\"ghost\", []);");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::BadSpawnTarget, Severity::Error)]
    );
}

#[test]
fn spawn_arity_mismatch_is_only_a_warning() {
    // The fault happens inside the spawned thread, and thread faults never
    // fail the parent program — must not reject.
    let r = vet("fn f(a) { return a; } let t = spawn(\"f\", []); join(t);");
    assert_eq!(codes(&r), vec![(DiagCode::BadArity, Severity::Warning)]);
    assert!(r.is_admissible());
}

#[test]
fn break_outside_loop_is_error() {
    let r = vet("break;");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::StrayControlFlow, Severity::Error)]
    );
}

#[test]
fn continue_inside_loop_is_fine() {
    let r = vet("for i in [1, 2] { continue; }");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn break_in_function_without_loop_is_flagged() {
    let r = vet("fn f() { break; } f();");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::StrayControlFlow, Severity::Error)]
    );
}

// ---------------------------------------------------------------------------
// Severity policy: only the guaranteed path errors
// ---------------------------------------------------------------------------

#[test]
fn dead_branch_issue_is_warning() {
    let r = vet("if (false) { let x = missing; }");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
    assert!(r.is_admissible());
}

#[test]
fn literal_true_branch_is_definite() {
    let r = vet("if (true) { let x = missing; }");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedVar, Severity::Error)]);
}

#[test]
fn non_literal_condition_demotes_to_warning() {
    let r = vet("let c = 1; if (c) { let x = missing; }");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
}

#[test]
fn uncalled_function_body_is_warning_only() {
    let r = vet("fn dead() { let x = missing; } let y = 1;");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
    assert!(r.is_admissible());
}

#[test]
fn definitely_called_function_body_errors() {
    let r = vet("fn f() { let x = missing; } f();");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedVar, Severity::Error)]);
}

#[test]
fn transitively_called_function_body_errors() {
    let r = vet("fn g() { let x = missing; } fn f() { g(); } f();");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedVar, Severity::Error)]);
}

#[test]
fn spawned_function_body_is_never_definite() {
    // Spawned-thread faults are swallowed by the parent.
    let r = vet("fn f() { let x = missing; } let t = spawn(\"f\", []); join(t);");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
    assert!(r.is_admissible());
}

#[test]
fn code_after_definite_break_is_not_definite() {
    // `while (true) { if (c) { break; } missing; }` can succeed when the
    // break is taken on the first iteration.
    let r = vet("let c = 1; while (true) { if (c) { break; } let x = missing; }");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
    assert!(r.is_admissible());
}

#[test]
fn first_iteration_of_literal_for_is_definite() {
    let r = vet("for i in [1, 2] { let x = missing; }");
    assert_eq!(codes(&r), vec![(DiagCode::UndefinedVar, Severity::Error)]);
}

#[test]
fn loop_over_unknown_list_demotes() {
    let r = vet("fn f(xs) { for i in xs { let y = missing; } } f([]);");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
}

#[test]
fn short_circuit_right_side_is_not_definite() {
    let r = vet("let c = 0; let x = c && missing;");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UndefinedVar, Severity::Warning)]
    );
    assert!(r.is_admissible());
}

// ---------------------------------------------------------------------------
// Pass 2: abstract typing
// ---------------------------------------------------------------------------

#[test]
fn indexing_an_int_is_error() {
    let r = vet("let x = 5; let y = x[0];");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
}

#[test]
fn join_on_non_thread_is_error() {
    let r = vet("let x = 5; join(x);");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
}

#[test]
fn pred_on_non_kv_is_error() {
    let r = vet("let d = pred(\"not a kv\", [1], 0);");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
}

#[test]
fn arithmetic_on_list_and_int_is_error() {
    let r = vet("let x = [1] - 2;");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
    // Ordering a float against nil faults; equality is total.
    let r = vet("let x = 0.9 < nil;");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
    let r = vet("let x = 0.9 != nil; let y = 1.5 == \"a\"; let z = [1] == 2.0;");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn string_concat_with_anything_is_fine() {
    let r = vet("let x = \"n=\" + 5 + nil + [1] + 1.5;");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn widened_types_do_not_error() {
    // x is int on one path and list on another: joined to ⊤, no diagnostic
    // — the verifier must not reject what the interpreter might run.
    let r = vet("let c = 1; let x = 5; if (c) { x = [1]; } let y = x[0];");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn kv_use_after_remove_is_error() {
    let r = vet("let kv = kv_create(); kv_remove(kv); let n = kv_len(kv);");
    assert_eq!(
        codes(&r),
        vec![(DiagCode::UseAfterRemove, Severity::Error)]
    );
}

#[test]
fn kv_rebind_after_remove_is_fine() {
    let r = vet("let kv = kv_create(); kv_remove(kv); kv = kv_create(); let n = kv_len(kv);");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn kv_remove_in_branch_does_not_poison_after() {
    let r = vet(
        "let c = 1; let kv = kv_create(); if (c) { kv_remove(kv); } let n = kv_next_pos(kv);",
    );
    assert!(r.is_admissible(), "{:?}", r.diags);
}

#[test]
fn kv_remove_that_a_short_circuit_skips_does_not_poison_after() {
    for src in [
        "let kv = kv_create(); let b = false && kv_remove(kv); emit(str(kv_len(kv)));",
        "let kv = kv_create(); let b = true || kv_remove(kv); emit(str(kv_len(kv)));",
        "let kv = kv_create(); let b = false && kv_remove(kv); let f = kv_fork(kv);",
    ] {
        let ran = harness::run_src(src);
        assert!(matches!(ran.result, Some(Ok(_))), "{src}: {ran:?}");
        let r = vet(src);
        assert!(r.diags.is_empty(), "{src}: {:?}", r.diags);
    }
}

#[test]
fn a_kv_call_under_try_is_not_a_use_after_remove() {
    // The kernel's refusal is the call's value: the use does not fault.
    let src = "let kv = kv_create(); kv_remove(kv); emit(str(is_err(try kv_len(kv))));";
    let ran = harness::run_src(src);
    assert!(matches!(ran.result, Some(Ok(_))), "{src}: {ran:?}");
    assert!(vet(src).diags.is_empty(), "{:?}", vet(src).diags);
    // A remove under `try` may not have happened, so what follows it is
    // not definitely a use after remove.
    let r = vet("let kv = kv_create(); try kv_remove(kv); kv_len(kv);");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
    // What `try` does not catch is checked as the bare call's.
    let r = vet("let kv = kv_create(); try kv_len(1);");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
    let r = vet("emit(err_kind(kv_create()));");
    assert_eq!(codes(&r), vec![(DiagCode::TypeMisuse, Severity::Error)]);
    // A `try` call's value may be either: no misuse is definite.
    let r = vet("let f = try kv_open(\"x\"); emit(err_kind(f)); kv_len(f);");
    assert!(r.diags.is_empty(), "{:?}", r.diags);
    // Its cost is the bare call's.
    let bare = vet("let kv = kv_create(); pred(kv, [1], 0);").effects;
    let caught = vet("let kv = try kv_create(); try pred(kv, [1], 0);").effects;
    assert_eq!(bare.fuel_bound, caught.fuel_bound);
    assert_eq!(bare.pred_bound, caught.pred_bound);
}

#[test]
fn shadowed_builtin_and_duplicate_fn_warn() {
    let r = vet("fn len(x) { return 0; } fn f() { return 1; } fn f() { return 2; } f();");
    let mut cs: Vec<DiagCode> = r.diags.iter().map(|d| d.code).collect();
    cs.sort();
    assert_eq!(cs, vec![DiagCode::ShadowedBuiltin, DiagCode::DuplicateFn]);
    assert!(r.is_admissible());
}

// ---------------------------------------------------------------------------
// Pass 3: effects & cost
// ---------------------------------------------------------------------------

#[test]
fn straight_line_cost_is_finite_and_small() {
    let r = vet("let kv = kv_create(); let d = pred(kv, [1, 2], 0);");
    assert_eq!(r.effects.pred_bound, Bound::Finite(1));
    assert_eq!(r.effects.kv_file_bound, Bound::Finite(1));
    assert_eq!(r.effects.spawn_bound, Bound::Finite(0));
    assert!(r.effects.uses_pred);
    let fuel = r.effects.fuel_bound.finite().unwrap_or(u64::MAX);
    assert!(fuel < 100, "fuel bound too loose: {fuel}");
}

#[test]
fn for_over_range_multiplies_bounds() {
    let r = vet("let kv = kv_create(); for i in range(0, 8) { let d = pred(kv, [i], i); }");
    assert_eq!(r.effects.pred_bound, Bound::Finite(8));
}

#[test]
fn for_over_single_let_list_variable_is_bounded() {
    let r = vet(
        "let kv = kv_create(); let xs = [1, 2, 3];\n\
         for x in xs { let d = pred(kv, [x], x); }",
    );
    assert_eq!(r.effects.pred_bound, Bound::Finite(3));
}

#[test]
fn reassigned_list_variable_is_unbounded() {
    let r = vet(
        "let kv = kv_create(); let xs = [1]; xs = [1, 2];\n\
         for x in xs { let d = pred(kv, [x], x); }",
    );
    assert_eq!(r.effects.pred_bound, Bound::Unbounded);
}

#[test]
fn while_loop_makes_fuel_unbounded() {
    let r = vet("let n = 0; while (n < 2) { n = n + 1; }");
    assert_eq!(r.effects.fuel_bound, Bound::Unbounded);
    // But nothing in the loop touches pred: that bound stays zero.
    assert_eq!(r.effects.pred_bound, Bound::Finite(0));
}

#[test]
fn recursion_is_unbounded() {
    let r = vet("fn f(n) { let kv = kv_create(); return f(n); } f(1);");
    assert_eq!(r.effects.kv_file_bound, Bound::Unbounded);
    assert_eq!(r.effects.fuel_bound, Bound::Unbounded);
}

#[test]
fn spawn_counts_child_kv_files_but_not_child_preds() {
    let r = vet(
        "fn worker(kv) { let d = pred(kv, [1], 0); let x = kv_fork(kv); return 0; }\n\
         let kv = kv_create();\n\
         let t = spawn(\"worker\", [kv]);\n\
         join(t);",
    );
    // Child preds run on the child's budget.
    assert_eq!(r.effects.pred_bound, Bound::Finite(0));
    // Child thread + child's kv_fork are global resources.
    assert_eq!(r.effects.spawn_bound, Bound::Finite(1));
    assert_eq!(r.effects.kv_file_bound, Bound::Finite(2));
    assert_eq!(
        r.effects.spawn_targets.iter().collect::<Vec<_>>(),
        vec!["worker"]
    );
}

#[test]
fn dynamic_spawn_target_gives_up_bounds() {
    let r = vet(
        "fn a() { let kv = kv_create(); return 0; }\n\
         let name = \"a\";\n\
         let t = spawn(name, []);",
    );
    assert!(r.effects.dynamic_spawns);
    assert_eq!(r.effects.spawn_bound, Bound::Unbounded);
    assert_eq!(r.effects.kv_file_bound, Bound::Unbounded);
}

#[test]
fn effect_set_collects_tools_ipc_and_paths() {
    let r = vet(
        "let out = call_tool(\"search\", \"q\");\n\
         send(1, \"hello\");\n\
         let kv = kv_open(\"doc0.kv\");\n\
         kv_link(kv, \"shared.kv\");",
    );
    assert!(r.effects.uses_tools);
    assert!(r.effects.uses_ipc);
    assert_eq!(
        r.effects.tool_names.iter().collect::<Vec<_>>(),
        vec!["search"]
    );
    assert_eq!(
        r.effects.kv_open_paths.iter().collect::<Vec<_>>(),
        vec!["doc0.kv"]
    );
    assert_eq!(
        r.effects.kv_link_paths.iter().collect::<Vec<_>>(),
        vec!["shared.kv"]
    );
}

#[test]
fn service_estimate_matches_pred_bound() {
    let r = vet("let kv = kv_create(); for i in range(0, 5) { let d = pred(kv, [i], i); }");
    assert_eq!(r.effects.service_estimate(), Some(5));
    let r = vet("let kv = kv_create(); let n = 0; while (n < 9) { let d = pred(kv, [n], n); n = n + 1; }");
    assert_eq!(r.effects.service_estimate(), None);
}

/// `pred_bound` counts the main thread only: a program whose spawned
/// worker decodes forever must not be offered to the door as the cheapest
/// program there is.
#[test]
fn a_spawning_program_has_no_service_estimate() {
    let r = vet(
        "fn worker(kv) {\n\
           let d = pred(kv, [1], 0)[0];\n\
           let pos = 1;\n\
           while (true) { d = pred(kv, [argmax(d)], pos)[0]; pos = pos + 1; }\n\
         }\n\
         let kv = kv_create();\n\
         let t = spawn(\"worker\", [kv]);\n\
         join(t);",
    );
    assert!(r.is_admissible(), "{:?}", codes(&r));
    assert_eq!(r.effects.pred_bound.finite(), Some(0), "main thread preds");
    assert_eq!(r.effects.service_estimate(), None);
    // A bounded program that spawns nothing keeps its estimate.
    let r = vet("let kv = kv_create(); let d = pred(kv, [1, 2], 0);");
    assert_eq!(r.effects.service_estimate(), Some(1));
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

#[test]
fn first_error_skips_warnings_and_renders_position() {
    let r = vet("if (false) { let a = missing; }\nlet b = missing2;");
    let e = r.first_error().expect("one error");
    assert_eq!(e.code, DiagCode::UndefinedVar);
    assert_eq!(e.span.line, 2);
    let rendered = e.render("prog.lip");
    assert!(
        rendered.starts_with("prog.lip:2:"),
        "bad render: {rendered}"
    );
    assert!(rendered.contains("missing2"), "bad render: {rendered}");
}

#[test]
fn diagnostics_come_out_in_source_order() {
    let r = vet("let a = m1;\nlet b = m2;\nlet c = m3;");
    let lines: Vec<u32> = r.diags.iter().map(|d| d.span.line).collect();
    assert_eq!(lines, vec![1, 2, 3]);
}

#[test]
fn empty_program_is_admissible_and_free() {
    let r = verify(&Program::default());
    assert!(r.is_admissible());
    assert_eq!(r.effects.fuel_bound, Bound::Finite(0));
}

#[test]
fn parse_error_from_verify_source_renders_with_position() {
    let e = verify_source("let = broken syntax here").expect_err("must not parse");
    let rendered = e.render("bad.lip");
    assert!(rendered.starts_with("bad.lip:1:"), "bad render: {rendered}");
}
