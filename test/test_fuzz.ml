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
    Alcotest.test_case "differential fuzz campaign (seeds 0-14)" `Slow (campaign_batch 0 15);
    Alcotest.test_case "differential fuzz campaign (seeds 15-29)" `Slow (campaign_batch 15 15);
    Alcotest.test_case "differential fuzz campaign (seeds 30-44)" `Slow (campaign_batch 30 15);
  ]
