(* The benchmark's own tests: its expectation agrees with the engine
   repo's oracle, and the small mode of every workload runs end to end
   with its checks green, every metric present and the spans covering
   the traced phases. *)

module Gen = Ariesrh_workload.Gen
module Oracle = Ariesrh_workload.Oracle
module Script = Ariesrh_workload.Script
open Perfbench

let specs =
  [
    ("default", Gen.default);
    ( "delegation-heavy",
      { Gen.default with n_objects = 12; p_delegate = 0.3; p_rollback = 0.08 } );
    ("in-flight at the end", { Gen.default with terminate_all = false });
  ]

(* every crash prefix, against a committed set that is neither all nor
   nothing, so lost commits are exercised as well *)
let expectation_matches_oracle () =
  List.iter
    (fun (name, spec) ->
      for seed = 1 to 15 do
        let script = Gen.generate spec ~seed:(Int64.of_int seed) in
        let committed t = t mod 3 <> 1 in
        for crash_at = 0 to List.length script do
          let n_objects = spec.Gen.n_objects in
          let want = Oracle.expected_for ~n_objects ~committed ~crash_at script in
          let got = Expect.expected_for ~n_objects ~committed ~crash_at script in
          if want <> got then
            Alcotest.failf "%s seed %d crash_at %d: expectation differs" name
              seed crash_at
        done
      done)
    specs

let occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let names l = List.map (fun (m : Workload.metric) -> m.name) l

let small_run workload ~trace () =
  let r =
    Workload.run ~workload ~seed:7 ~seconds:0. ~trace ~small:true
      ~dir:"_perfbench_test" ()
  in
  List.iter prerr_endline r.errors;
  Alcotest.(check bool) "correct" true r.correct;
  Alcotest.(check int) "failed" 0 r.failed;
  Alcotest.(check bool) "attempted" true (r.attempted > 0);
  let want = List.map fst (if trace then Workload.per_layer else Workload.end_to_end) in
  Alcotest.(check (list string)) "every metric, once" want (names r.metrics);
  List.iter
    (fun (m : Workload.metric) ->
      if not (Float.is_finite m.value && m.value >= 0.) then
        Alcotest.failf "%s = %g" m.name m.value;
      if (not trace) && m.value <= 0. then Alcotest.failf "%s is 0" m.name)
    r.metrics;
  let value n = (List.find (fun (m : Workload.metric) -> m.name = n) r.metrics).value in
  if trace then begin
    (* full-size runs must reach 0.9; a small run's load phase lasts
       about a millisecond, where the benchmark's fixed costs weigh more *)
    Alcotest.(check bool) "spans cover the load phase" true
      (value "obs.span_coverage_load" >= 0.8);
    Alcotest.(check bool) "spans cover the restarts" true
      (value "obs.span_coverage_restart" >= 0.9);
    if workload = "xshard" then begin
      Alcotest.(check bool) "transfers ran" true
        (value "shard.migrations_per_commit" > 0.);
      Alcotest.(check (float 0.)) "the crash left one transfer in doubt" 1.
        (value "shard.restart_resolved")
    end
  end;
  let json = Workload.to_json r in
  Alcotest.(check bool) "one JSON line" true
    (String.length json > 0 && json.[0] = '{' && not (String.contains json '\n'));
  List.iter
    (fun n ->
      let key = Printf.sprintf "%S: {\"value\": " n in
      Alcotest.(check int) ("JSON carries " ^ n) 1 (occurrences json key))
    want

let () =
  let runs trace =
    List.map
      (fun w ->
        Alcotest.test_case
          (Printf.sprintf "%s small (trace %d)" w (if trace then 1 else 0))
          `Quick (small_run w ~trace))
      Inputs.workloads
  in
  Alcotest.run "perfbench"
    [
      ( "expect",
        [ Alcotest.test_case "matches Oracle.expected_for" `Quick expectation_matches_oracle ] );
      ("workloads", runs false @ runs true);
    ]
