(* The benchmark command:

     main.exe --workload oltp|durable|xshard --seed N --seconds S --trace 0|1
              [--small] [--pooled]

   prints progress on stderr and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}. A traced run
   writes its span log under _perfbench/. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and small = ref false in
  let pooled = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oltp | durable | xshard");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " load-phase length");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--small", Arg.Set small, " small inputs (the benchmark's own tests)");
      ("--pooled", Arg.Set pooled, " xshard: one domain per shard (reference only)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Perfbench.Inputs.workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let r =
    Perfbench.Workload.run ~pooled:!pooled ~workload:!workload ~seed:!seed
      ~seconds:!seconds ~trace:(!trace = 1) ~small:!small ~dir:"_perfbench" ()
  in
  List.iter (fun e -> prerr_endline ("CHECK FAILED: " ^ e)) r.errors;
  print_endline (Perfbench.Workload.to_json r)
