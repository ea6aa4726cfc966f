(* Differential fuzzing: randomly generated well-defined programs must
   behave identically under every pointer model (abstract machine) and
   every ABI (compiled to the softcore). This is the strongest
   cross-check in the repository: ten implementations of the C
   abstract machine executing the same program.

   The generator and campaign runner live in lib/fuzz (cheri_fuzz);
   each batch here is one seeded campaign fanned over the domain pool,
   failing with the full reproducer dump on any divergence. *)

module Campaign = Cheri_fuzz.Campaign

let campaign_batch first_seed seeds () =
  let r = Campaign.run ~jobs:2 ~shrink:true ~first_seed ~seeds () in
  List.iter
    (fun (seed, exn) -> Alcotest.failf "seed %d: harness error: %s" seed exn)
    r.Campaign.errors;
  match r.Campaign.divergences with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s" (Format.asprintf "%a" Campaign.pp_divergence d)

(* -- the per-domain front-end memo ----------------------------------------- *)

(* What the ten implementations report when each runs the whole
   pipeline itself: Interp.run_with and Codegen.run on the source. *)
let fresh_outcomes src : Campaign.impl_outcome list =
  let stuck impl exn =
    { Campaign.impl; status = Campaign.Stuck (Printexc.to_string exn); out = "" }
  in
  let interp (e : Cheri_models.Registry.entry) =
    let impl = "interp/" ^ e.Cheri_models.Registry.display_name in
    match Cheri_interp.Interp.run_with e.Cheri_models.Registry.model src with
    | Exit (c, out) -> { Campaign.impl; status = Campaign.Exited c; out }
    | Fault (f, out) ->
        { impl; status = Faulted (Format.asprintf "%a" Cheri_models.Fault.pp f); out }
    | Stuck msg -> { impl; status = Stuck msg; out = "" }
    | Exhausted out -> { impl; status = Hung; out }
    | exception exn -> stuck impl exn
  in
  let compiled abi =
    let impl = "isa/" ^ Cheri_compiler.Abi.name abi in
    let module M = Cheri_isa.Machine in
    match Cheri_compiler.Codegen.run abi src with
    | M.Exit c, m -> { Campaign.impl; status = Campaign.Exited c; out = M.output m }
    | (M.Fuel_exhausted | M.Deadline_exceeded | M.Yielded), m ->
        { impl; status = Hung; out = M.output m }
    | o, m -> { impl; status = Faulted (Format.asprintf "%a" M.pp_outcome o); out = M.output m }
    | exception exn -> stuck impl exn
  in
  List.map interp Cheri_models.Registry.entries @ List.map compiled Cheri_compiler.Abi.all

let outcomes_testable =
  Alcotest.testable
    (Fmt.of_to_string (fun os -> String.concat "; " (List.map Campaign.outcome_key os)))
    ( = )

let rejected_sources =
  [
    "int main(void) { return nope; }" (* Type_error *);
    "int main(void) {\n  return ;;\n}" (* Parse_error *);
    "int main(void) { return 1 @ 2; }" (* Lex_error *);
  ]

(* A source the front end rejects is not remembered: each of the ten
   reports Stuck with the very text of its own fresh run. *)
let test_memo_rejected_source () =
  let impls = Campaign.default_impls () in
  List.iter
    (fun src ->
      let got = Campaign.run_impls impls src in
      Alcotest.check outcomes_testable src (fresh_outcomes src) got;
      List.iter
        (fun o ->
          match o.Campaign.status with
          | Campaign.Stuck _ -> ()
          | _ -> Alcotest.failf "%s: %s was not stuck" src o.Campaign.impl)
        got)
    rejected_sources

(* One impl list fed A, B, a rejected source, then A again reports
   what fresh runs report every time. *)
let test_memo_follows_the_source () =
  let a = Cheri_fuzz.Gen.source ~seed:0 and b = Cheri_fuzz.Gen.source ~seed:1 in
  let expect_a = fresh_outcomes a and expect_b = fresh_outcomes b in
  Alcotest.(check bool) "A and B differ" false (expect_a = expect_b);
  let impls = Campaign.default_impls () in
  List.iter
    (fun (what, src, expect) ->
      Alcotest.check outcomes_testable what expect (Campaign.run_impls impls src))
    [
      ("A", a, expect_a);
      ("B", b, expect_b);
      ("rejected", List.hd rejected_sources, fresh_outcomes (List.hd rejected_sources));
      ("A again", a, expect_a);
    ]

(* The memo is per domain: a campaign over a shared impl list reports
   the same divergences and errors on one domain and on two. An impl
   that flips the exit code of odd-length sources makes half the seeds
   divergent, so every report carries the ten outcomes of those seeds. *)
let test_memo_jobs_invariant () =
  let base = Campaign.interp_impl (List.hd Cheri_models.Registry.entries) in
  let odd : Campaign.impl =
    {
      Campaign.impl_name = "interp/odd";
      exec =
        (fun src ->
          let o = base.Campaign.exec src in
          match o.Campaign.status with
          | Campaign.Exited c when String.length src land 1 = 1 ->
              { o with Campaign.impl = "interp/odd"; status = Campaign.Exited (Int64.logxor c 1L) }
          | _ -> { o with Campaign.impl = "interp/odd" });
    }
  in
  let impls = Campaign.default_impls () @ [ odd ] in
  let report jobs = Campaign.run ~impls ~jobs ~seeds:64 () in
  let one = report 1 and two = report 2 in
  Alcotest.(check bool) "some seeds diverge" true (one.Campaign.divergences <> []);
  Alcotest.(check string) "jobs 1 = jobs 2"
    (Campaign.report_json ~timing:false one)
    (Campaign.report_json ~timing:false two)

(* A journal line for a seed outside the campaign — the right header,
   a seed past the range — is not a resumed seed: it must not reach
   the report, the resumed count or fuzz_resumed_total. *)
let test_resume_ignores_foreign_seeds () =
  let ck = Filename.temp_file "cheri_fuzz_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove ck) (fun () ->
      let oc = open_out_bin ck in
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [
          Campaign.header_json ~first_seed:0 ~seeds:2 ~shrink:false;
          Campaign.seed_json 0 None;
          Campaign.seed_json 1 None;
          Campaign.seed_json 7 None;
          Campaign.seed_json (-1) None;
        ];
      close_out oc;
      let obs = Cheri_obs.Obs.create () in
      let r = Campaign.run ~obs ~first_seed:0 ~seeds:2 ~resume:ck () in
      Alcotest.(check int) "only the campaign's seeds are resumed" 2 r.Campaign.resumed;
      Alcotest.(check int) "fuzz_resumed_total agrees" 2
        Cheri_obs.Obs.(Counter.value (counter obs "fuzz_resumed_total")))

(* An unreadable resume file is a Resume_mismatch (the CLI's exit 2),
   not an escaping Sys_error. *)
let test_resume_unreadable () =
  List.iter
    (fun path ->
      match Campaign.run ~seeds:1 ~resume:path () with
      | exception Campaign.Resume_mismatch _ -> ()
      | _ -> Alcotest.failf "resume from %s accepted" path)
    [ "/nonexistent/fuzz.jsonl"; Filename.get_temp_dir_name () ]

let suite =
  [
    Alcotest.test_case "resume ignores journal lines outside the campaign" `Quick
      test_resume_ignores_foreign_seeds;
    Alcotest.test_case "resume from an unreadable file is refused" `Quick test_resume_unreadable;
    Alcotest.test_case "memo: a rejected source reports as fresh runs" `Quick
      test_memo_rejected_source;
    Alcotest.test_case "memo: A, B, rejected, A report as fresh runs" `Quick
      test_memo_follows_the_source;
    Alcotest.test_case "memo: seeds 0-63 report the same on 1 and 2 domains" `Slow
      test_memo_jobs_invariant;
    Alcotest.test_case "differential fuzz campaign (seeds 0-14)" `Slow (campaign_batch 0 15);
    Alcotest.test_case "differential fuzz campaign (seeds 15-29)" `Slow (campaign_batch 15 15);
    Alcotest.test_case "differential fuzz campaign (seeds 30-44)" `Slow (campaign_batch 30 15);
  ]
