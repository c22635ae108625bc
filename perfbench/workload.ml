module Db = Ariesrh_core.Db
module Config = Ariesrh_core.Config
module Governor = Ariesrh_maintenance.Governor
module Script = Ariesrh_workload.Script
module Fault = Ariesrh_fault.Fault
module Report = Ariesrh_recovery.Report
module Log_store = Ariesrh_wal.Log_store
module Log_stats = Ariesrh_wal.Log_stats
module Ob_list = Ariesrh_txn.Ob_list
module Profiler = Ariesrh_obs.Profiler
module S = Spans

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;
}

let end_to_end =
  [
    ("setup_s", "s");
    ("commit_tps", "1/s");
    ("txn_p50_us", "us");
    ("txn_p99_us", "us");
    ("wal_bytes_per_commit", "B");
    ("restart_s", "s");
    ("first_commit_s", "s");
    ("drain_s", "s");
    ("peak_mem_mb", "MB");
  ]

let per_layer =
  [
    ("core.begin_p50_us", "us");
    ("core.read_p50_us", "us");
    ("core.update_p50_us", "us");
    ("core.delegate_p50_us", "us");
    ("core.rollback_p50_us", "us");
    ("core.checkpoint_p50_us", "us");
    ("core.commit_p50_us", "us");
    ("core.commit_p99_us", "us");
    ("wal.appends_per_commit", "ratio");
    ("wal.bytes_per_append", "B");
    ("wal.forces_per_commit", "ratio");
    ("wal.restart_decodes_per_record", "ratio");
    ("storage.pool_hit_ratio", "ratio");
    ("storage.evictions_per_commit", "ratio");
    ("storage.page_writes_per_commit", "ratio");
    ("storage.restart_page_reads", "count");
    ("txn.scope_probes_per_delegate", "ratio");
    ("recovery.forward_records", "count");
    ("recovery.redo_applied", "count");
    ("recovery.backward_examined", "count");
    ("recovery.undos", "count");
    ("recovery.forward_s", "s");
    ("recovery.backward_s", "s");
    ("recovery.open_records", "count");
    ("recovery.backlog_at_open", "count");
    ("recovery.step_p50_us", "us");
    ("maintenance.tick_p99_us", "us");
    ("maintenance.busy_s", "s");
    ("maintenance.checkpoints", "count");
    ("maintenance.records_truncated_per_commit", "ratio");
    ("shard.migrations_per_commit", "ratio");
    ("shard.migrate_p50_us", "us");
    ("shard.forces_per_migration", "ratio");
    ("shard.restart_resolved", "count");
    ("obs.tracing_slowdown", "ratio");
    ("obs.span_coverage_load", "ratio");
    ("obs.span_coverage_restart", "ratio");
  ]

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  percentile_sorted a p

let median l = percentile (Array.of_list l) 0.5

(* The mean of the three best values of a sample (of all of it when
   shorter), the lowest when [lower], else the highest. On the shared
   host this benchmark was tuned on, the same work runs up to a third
   slower for tens of seconds at a time while other tenants are busy,
   so a whole run can fall into a slow stretch and shift any central
   figure of it; its best few samples come from the least disturbed
   moments, which every run has, and varied half as much from run to
   run as its median. *)
let best ~lower l =
  let a = Array.of_list l in
  Array.sort (if lower then compare else fun x y -> compare y x) a;
  let k = min 3 (Array.length a) in
  let s = ref 0. in
  for i = 0 to k - 1 do
    s := !s +. a.(i)
  done;
  if k = 0 then 0. else !s /. float_of_int k

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* --- correctness ------------------------------------------------------ *)

type checks = {
  mutable errors : string list;
  mutable attempted : int;
  mutable failed : int;
}

let fail c fmt = Printf.ksprintf (fun m -> c.errors <- m :: c.errors) fmt

let check_state c what ~expected actual =
  let bad = ref [] in
  Array.iteri
    (fun o v -> if actual.(o) <> v then bad := o :: !bad)
    expected;
  match List.rev !bad with
  | [] -> ()
  | o :: _ as l ->
      fail c "%s: %d objects differ from the expectation (first: object %d = %d, expected %d)"
        what (List.length l) o actual.(o) expected.(o)

(* Every engine's operations are tallied when it is closed. *)
let close c eng =
  c.attempted <- c.attempted + Engine.ops eng;
  c.failed <- c.failed + Engine.failed eng;
  Engine.close eng

let check_audit c what eng =
  match Engine.audit eng with
  | [] -> ()
  | v :: _ as vs -> fail c "%s: audit reports %d violations (first: %s)" what (List.length vs) v

let check_homes c what eng expected =
  Array.iteri
    (fun o h ->
      if h >= 0 && Engine.home eng o <> h then
        fail c "%s: object %d homed on shard %d, expected %d" what o
          (Engine.home eng o) h)
    expected

(* Every timed region starts with the garbage collector settled, so it
   pays for its own allocation only, not for the collection debt the
   untimed work before it (building a crash image, checking a state)
   left behind. *)
let quiet () = Gc.full_major ()

(* --- set-up ----------------------------------------------------------- *)

type ctx = {
  shape : Inputs.shape;
  seed : int;
  pool : Ariesrh_shard.Shard_pool.t option;
      (* the load engine's shards on their own domains *)
}

let engine ?pool ctx ~mode ~tracing ~live_fault sp =
  Engine.create ?pool ctx.shape ~mode ~tracing ~live_fault sp

(* generate the inputs and create the engine *)
let setup ctx ~tracing sp =
  quiet ();
  let t0 = Clock.now_ns () in
  let inputs = Inputs.generate ctx.shape ~seed:ctx.seed in
  let e = engine ?pool:ctx.pool ctx ~mode:Config.Offline ~tracing ~live_fault:false sp in
  (inputs, e, Clock.since t0)

(* --- load phase ------------------------------------------------------- *)

type counters = {
  appends : int;
  bytes : int;
  size_sum : int;
  forces : int;
  hits : int;
  misses : int;
  evictions : int;
  page_writes : int;
  page_reads : int;
  decodes : int;
  probes : int;
}

let counters eng =
  Array.fold_left
    (fun c db ->
      let ls = Log_store.stats (Db.log_store db) in
      let h, m, e = Db.pool_counters db in
      let ds = Db.disk_stats db in
      {
        c with
        appends = c.appends + ls.Log_stats.appends;
        bytes = c.bytes + ls.Log_stats.bytes_flushed;
        size_sum = c.size_sum + ls.Log_stats.size_sum;
        forces = c.forces + ls.Log_stats.flushes;
        hits = c.hits + h;
        misses = c.misses + m;
        evictions = c.evictions + e;
        page_writes = c.page_writes + ds.Ariesrh_storage.Disk.page_writes;
        page_reads = c.page_reads + ds.Ariesrh_storage.Disk.page_reads;
        decodes = c.decodes + Log_store.decode_calls (Db.log_store db);
      })
    {
      appends = 0;
      bytes = 0;
      size_sum = 0;
      forces = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      page_writes = 0;
      page_reads = 0;
      decodes = 0;
      probes = Ob_list.scope_probes ();
    }
    (Engine.dbs eng)

let diff a b =
  {
    appends = a.appends - b.appends;
    bytes = a.bytes - b.bytes;
    size_sum = a.size_sum - b.size_sum;
    forces = a.forces - b.forces;
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    evictions = a.evictions - b.evictions;
    page_writes = a.page_writes - b.page_writes;
    page_reads = a.page_reads - b.page_reads;
    decodes = a.decodes - b.decodes;
    probes = a.probes - b.probes;
  }

let add a b =
  {
    appends = a.appends + b.appends;
    bytes = a.bytes + b.bytes;
    size_sum = a.size_sum + b.size_sum;
    forces = a.forces + b.forces;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    page_writes = a.page_writes + b.page_writes;
    page_reads = a.page_reads + b.page_reads;
    decodes = a.decodes + b.decodes;
    probes = a.probes + b.probes;
  }

type load = {
  commits : int;
  per_pass : (float * float * float) list;
      (* commits/s, p50 and p99 latency of each pass over the rounds *)
  io : counters;
  delegates : int;
  migrations : int;
  migrate_forces : int;
  checkpoints : int;  (* by the governors *)
  truncated : int;  (* log records, by the governors *)
  last : Engine.t;  (* the last load engine, still open *)
  last_passes : int;
}

(* A load engine after its passes (it started fresh): the expectation
   over every round run, every issued commit acknowledged, on xshard the
   home of every roaming object is the shard of its last pull, and when
   [audit], a clean audit (it reads the whole log: a second and a half
   for one epoch of xshard, so a run audits its last load engine
   only). *)
let check_load c (inputs : Inputs.t) eng ~passes ~audit =
  let sh = inputs.shape in
  let values = Array.make (Inputs.n_objects sh) 0 in
  let homes = Array.make (Inputs.n_objects sh) (-1) in
  let expected_commits = ref 0 in
  for _ = 1 to passes do
    Array.iter
      (fun (s : Inputs.script) ->
        let committed = Array.make s.txns false in
        Array.iter
          (function
            | Script.Commit x ->
                committed.(x) <- true;
                incr expected_commits
            | _ -> ())
          s.actions;
        Expect.apply ~values ~committed:(Array.get committed) s.actions;
        Array.iter
          (function
            | Inputs.Pull { txn; obj; _ } -> homes.(obj) <- txn mod sh.shards
            | Inputs.Act _ -> ())
          s.ops)
      inputs.rounds
  done;
  let acked = Engine.commits_acked eng in
  if acked <> !expected_commits then
    fail c "load: %d commits acknowledged, %d issued" acked !expected_commits;
  check_state c "load" ~expected:values (Engine.peek_all eng);
  check_homes c "load" eng homes;
  if audit then check_audit c "load" eng

(* Passes over the rounds until the time is up (at least one), each
   ending in a group-commit barrier so every commit is acknowledged.
   [first] serves the first [epoch_passes] passes (an epoch); then it is
   checked and closed and [fresh ()] takes over, so the engine's log,
   tables and memory stay the size of one epoch however long the run.
   [between loaded] runs between two epochs, off the load's clock and
   with no load engine open, [loaded] being the load time so far. The
   last engine is left open for {!finish_load}. *)
let load_phase ?(between = ignore) c (inputs : Inputs.t) ~first ~fresh ~seconds
    sp =
  let sh = inputs.shape in
  let span = int_of_float (seconds *. 1e9) in
  let eng = ref first and before = ref (counters first) and on_engine = ref 0 in
  let io = ref (diff !before !before) in
  let commits = ref 0 and migrations = ref 0 and migrate_forces = ref 0 in
  let checkpoints = ref 0 and truncated = ref 0 in
  let account () =
    let e = !eng in
    io := add !io (diff (counters e) !before);
    commits := !commits + Engine.commits_acked e;
    migrations := !migrations + Engine.migrations e;
    migrate_forces := !migrate_forces + Engine.migrate_forces e;
    Option.iter
      (fun g ->
        let s = Governor.stats g in
        checkpoints := !checkpoints + s.Governor.checkpoints;
        truncated := !truncated + s.Governor.records_truncated)
      (Engine.governor e)
  in
  let loaded = ref 0 and passes = ref 0 and per_pass = ref [] in
  ignore (Engine.take_latencies_us first);
  quiet ();
  let continue = ref true in
  while !continue do
    let e = !eng in
    let a0 = Engine.commits_acked e in
    let t0 = Clock.now_ns () in
    S.phase sp S.k_phase_load (fun () ->
        Array.iter (Engine.run e) inputs.rounds;
        Engine.flush_commits e);
    let t1 = Clock.now_ns () in
    let l = Engine.take_latencies_us e in
    Array.sort compare l;
    per_pass :=
      ( float_of_int (Engine.commits_acked e - a0) /. Clock.seconds (t1 - t0),
        percentile_sorted l 0.5,
        percentile_sorted l 0.99 )
      :: !per_pass;
    loaded := !loaded + (t1 - t0);
    incr passes;
    incr on_engine;
    continue := !loaded < span;
    if !on_engine = sh.epoch_passes || not !continue then begin
      account ();
      if !continue then begin
        check_load c inputs e ~passes:!on_engine ~audit:false;
        close c e;
        quiet ();
        between (Clock.seconds !loaded);
        eng := fresh ();
        before := counters !eng;
        on_engine := 0;
        quiet ()
      end
    end
  done;
  let delegates = ref 0 in
  Array.iter
    (fun (s : Inputs.script) ->
      Array.iter (function Script.Delegate _ -> incr delegates | _ -> ()) s.actions)
    inputs.rounds;
  {
    commits = !commits;
    per_pass = List.rev !per_pass;
    io = !io;
    delegates = !delegates * !passes;
    migrations = !migrations;
    migrate_forces = !migrate_forces;
    checkpoints = !checkpoints;
    truncated = !truncated;
    last = !eng;
    last_passes = !on_engine;
  }

let finish_load c inputs ld =
  check_load c inputs ld.last ~passes:ld.last_passes ~audit:true;
  close c ld.last

(* --- restarts ----------------------------------------------------------- *)

(* Build a crash image on a fresh engine: run its crash script, and on
   xshard interrupt one more transfer with an armed crash, then crash.
   A crash armed at a log force fires once the force is durable, so
   the power fails just after the Xfer_out intent (restart rolls the
   transfer back) or just after the Xfer_in (rolled forward). The span
   log is off while building. *)
let build_image ctx (inputs : Inputs.t) (img : Inputs.image) ~mode ~tracing =
  let eng =
    engine ctx ~mode ~tracing ~live_fault:(inputs.shape.shards > 1)
      (S.create ~enabled:false)
  in
  Engine.track_acks eng;
  Engine.run eng img.crash;
  (match Engine.fault eng with
  | None -> ()
  | Some f -> (
      let obj, target = img.crash_pull in
      (* warm both pages, and harden the source's commit group as the
         migration would before its intent, so the transfer's own I/O is
         exactly its three forced records; the target's group stays
         pending *)
      ignore (Engine.peek_all eng);
      Db.flush_commits (Engine.dbs eng).(Engine.home eng obj);
      Fault.arm_crash_in f (if img.crash_after_in then 2 else 1);
      match Engine.migrate eng obj ~target with
      | () -> Fault.disarm_crash f
      | exception Fault.Injected_crash _ -> Fault.disarm_crash f));
  (* The pending commit group dies with the crash. Commits in it that a
     flush made for another reason already hardened survive it, though
     the durable hook never fired for them: they count as acknowledged. *)
  let hardened = Engine.ack_durable_commits eng in
  let acked = Array.init img.crash.txns (Engine.acked eng) in
  Engine.crash eng;
  (eng, acked, hardened)

type offline = {
  restart_s : float;
  off_reports : Report.t array;
  decodes_per_record : float;
  page_reads : int;
  resolved : int;
  offline_end : int array;  (* the state after the probe commit *)
  probe : int;
  hardened : int;  (* durable commits the crash left unacknowledged *)
}

type on_demand = {
  first_commit_s : float;
  drain_s : float option;  (* when drained *)
  od_reports : Report.t array;
  backlog : int;
}

let offline_once c ctx (inputs : Inputs.t) img ~tracing sp =
  let sh = inputs.shape in
  let off, acked, hardened = build_image ctx inputs img ~mode:Config.Offline ~tracing in
  Engine.set_spans off sp;
  let expected =
    Expect.expected_for ~n_objects:(Inputs.n_objects sh)
      ~committed:(Array.get acked) (Array.to_list img.crash.actions)
  in
  let probe = Inputs.probe sh img ~acked:(Array.get acked) in
  let before = counters off in
  quiet ();
  let t0 = Clock.now_ns () in
  let off_reports = S.phase sp S.k_phase_restart (fun () -> Engine.recover off) in
  let restart_s = Clock.since t0 in
  let io = diff (counters off) before in
  let records =
    Array.fold_left (fun n r -> n + r.Report.log_io.Log_stats.reads) 0 off_reports
  in
  let resolved = Engine.resolved off in
  check_state c "offline restart" ~expected (Engine.peek_all off);
  if sh.shards > 1 then begin
    if resolved <> 1 then
      fail c "offline restart resolved %d in-doubt transfers, expected 1" resolved;
    let homes = Array.make (Inputs.n_objects sh) (-1) in
    Array.iteri (fun j h -> homes.(Inputs.roaming_oid sh j) <- h) img.crash_homes;
    let obj, target = img.crash_pull in
    let forward =
      (Ariesrh_shard.Sharded.counters (Option.get (Engine.sharded off)))
        .resolved_forward
    in
    if forward = 1 then homes.(obj) <- target;
    check_homes c "offline restart" off homes
  end;
  check_audit c "offline restart" off;
  Engine.set_spans off (S.create ~enabled:false);
  Engine.probe_commit off probe;
  let offline_end = Engine.peek_all off in
  close c off;
  {
    restart_s;
    off_reports;
    decodes_per_record = ratio io.decodes records;
    page_reads = io.page_reads;
    resolved;
    offline_end;
    probe;
    hardened;
  }

(* The same image restarted on demand: open and commit one transaction;
   then, when [drain], drain the backlog and end where the offline
   restart (plus the same probe transaction) ended. *)
let on_demand_once c ctx inputs img (off : offline) ~drain ~tracing sp =
  let od, _, _ = build_image ctx inputs img ~mode:Config.On_demand ~tracing in
  Engine.set_spans od sp;
  if drain then Gc.compact () else quiet ();
  let t0 = Clock.now_ns () in
  let od_reports, backlog =
    S.phase sp S.k_phase_open (fun () ->
        let r = Engine.recover od in
        let backlog = Engine.recovery_backlog od in
        Engine.probe_commit od off.probe;
        (r, backlog))
  in
  let first_commit_s = Clock.since t0 in
  if backlog = 0 then fail c "on-demand restart opened with no backlog";
  let drain_s =
    if not drain then None
    else begin
      let t1 = Clock.now_ns () in
      S.phase sp S.k_phase_drain (fun () ->
          while Engine.recovery_step od do () done);
      let drain_s = Clock.since t1 in
      if Engine.recovering od then
        fail c "on-demand restart still recovering after its drain";
      Engine.await_recovery od;
      check_state c "on-demand restart (against offline)"
        ~expected:off.offline_end (Engine.peek_all od);
      check_audit c "on-demand restart" od;
      Some drain_s
    end
  in
  close c od;
  { first_commit_s; drain_s; od_reports; backlog }

(* Image [k] restarted offline and on demand. *)
let restart_pair c ctx inputs ~tracing sp k ~drain =
  let img = inputs.Inputs.images.(k) in
  let off = offline_once c ctx inputs img ~tracing sp in
  let od = on_demand_once c ctx inputs img off ~drain ~tracing sp in
  Printf.eprintf "image %d: %d hardened unacknowledged commits, restart %.6f s, first commit %.6f s%s\n%!" k
    off.hardened off.restart_s od.first_commit_s
    (match od.drain_s with
    | Some d -> Printf.sprintf ", drain %.6f s" d
    | None -> "");
  (off, od)

(* The restart pairs of a run: pair [k] restarts image [k mod images];
   when [k] is a multiple of [drain_every] and fewer than [shape.drains]
   have been drained, it instead restarts the next image in a cycle of
   their own and drains its on-demand restart. *)
type restarts = {
  mutable done_ : (offline * on_demand) list;
  mutable next : int;
  mutable drained : int;
  mutable drain_every : int;
}

let restarts ~drain_every =
  { done_ = []; next = 0; drained = 0; drain_every = max 1 drain_every }

let restart_next c ctx inputs ~tracing sp r =
  let k = r.next and images = Array.length inputs.Inputs.images in
  let drain = r.drained < ctx.shape.drains && k mod r.drain_every = 0 in
  let img = if drain then r.drained mod images else k mod images in
  let pair = restart_pair c ctx inputs ~tracing sp img ~drain in
  if drain then r.drained <- r.drained + 1;
  r.done_ <- pair :: r.done_;
  r.next <- k + 1

(* Until every image has been restarted, draining while drains remain. *)
let restart_rest c ctx inputs ~tracing sp r =
  r.drain_every <- 1;
  while r.next < Array.length inputs.Inputs.images do
    restart_next c ctx inputs ~tracing sp r
  done;
  let pairs = List.rev r.done_ in
  (List.map fst pairs, List.map snd pairs)

(* --- the run ------------------------------------------------------------ *)

let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ()

let m name value =
  let unit_ =
    match List.assoc_opt name end_to_end with
    | Some u -> u
    | None -> List.assoc name per_layer
  in
  { name; value; unit_ }

let sum_reports f rs = Array.fold_left (fun a r -> a + f r) 0 rs
let prof_s name rs =
  Array.fold_left (fun a r -> a +. (Profiler.wall_ms r.Report.profile name /. 1000.)) 0. rs

let pairs_per_second = 2

let run_untraced c ctx ~seconds =
  let sh = ctx.shape in
  let sp = S.create ~enabled:false in
  (* A set-up and two restart pairs for each second of load run
     between the load's epochs: their samples then come from the same
     stretch of time as the load's, so the least disturbed moments
     {!best} looks for are among them, and no load engine's heap is
     there for the collector to work through while they are timed. What
     the pauses did not reach runs after the load. *)
  let setups = ref [] in
  let setup_once () =
    let inputs, e, s = setup ctx ~tracing:false sp in
    setups := s :: !setups;
    (inputs, e)
  in
  let inputs, first = setup_once () in
  let fresh () =
    engine ?pool:ctx.pool ctx ~mode:Config.Offline ~tracing:false ~live_fault:false sp
  in
  let r =
    restarts ~drain_every:(pairs_per_second * int_of_float seconds / sh.drains)
  in
  let next = ref 1. in
  let ld =
    load_phase c inputs ~first ~fresh ~seconds sp ~between:(fun loaded ->
        while loaded >= !next do
          next := !next +. 1.;
          close c (snd (setup_once ()));
          for _ = 1 to pairs_per_second do
            restart_next c ctx inputs ~tracing:false sp r
          done
        done)
  in
  while List.length !setups < sh.setups do
    close c (snd (setup_once ()))
  done;
  prerr_endline
    ("set-up (s): "
    ^ String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
  prerr_endline
    ("load passes (commits/s): "
    ^ String.concat " " (List.map (fun (tps, _, _) -> Printf.sprintf "%.0f" tps) ld.per_pass));
  let offs, ods = restart_rest c ctx inputs ~tracing:false sp r in
  (* the peak resident set of the whole run: every load engine served
     the same number of passes, so the figure does not grow with the
     number of passes a run got through; the last engine's audit reads
     its whole log, so it runs after the reading *)
  let peak_mb = vm_hwm_mb () in
  finish_load c inputs ld;
  let low l = best ~lower:true l in
  let sl f = List.map f ld.per_pass in
  [
    m "setup_s" (low !setups);
    m "commit_tps" (best ~lower:false (sl (fun (tps, _, _) -> tps)));
    m "txn_p50_us" (low (sl (fun (_, p50, _) -> p50)));
    m "txn_p99_us" (low (sl (fun (_, _, p99) -> p99)));
    m "wal_bytes_per_commit" (ratio ld.io.bytes ld.commits);
    m "restart_s" (low (List.map (fun r -> r.restart_s) offs));
    m "first_commit_s" (low (List.map (fun r -> r.first_commit_s) ods));
    m "drain_s" (low (List.filter_map (fun r -> r.drain_s) ods));
    m "peak_mem_mb" peak_mb;
  ]

let run_traced c ctx ~seconds ~spans_out =
  let off = S.create ~enabled:false in
  let fresh ~tracing sp () =
    engine ?pool:ctx.pool ctx ~mode:Config.Offline ~tracing ~live_fault:false sp
  in
  (* the same load untraced, then traced, half the time each: their
     throughput ratio is the tracing overhead *)
  let inputs, first, _ = setup ctx ~tracing:false off in
  let plain =
    load_phase c inputs ~first ~fresh:(fresh ~tracing:false off)
      ~seconds:(seconds /. 2.) off
  in
  finish_load c inputs plain;
  let sp = S.create ~enabled:true in
  let ld =
    load_phase c inputs
      ~first:(fresh ~tracing:true sp ())
      ~fresh:(fresh ~tracing:true sp) ~seconds:(seconds /. 2.) sp
  in
  finish_load c inputs ld;
  let offs, ods =
    restart_rest c ctx inputs ~tracing:true sp (restarts ~drain_every:1)
  in
  let med f = median (List.map f offs) and med_od f = median (List.map f ods) in
  let d k = S.durations sp ~phase:S.k_phase_load k in
  let p50 k = percentile (d k) 0.5 in
  let commits = ld.commits in
  let tps l = best ~lower:false (List.map (fun (tps, _, _) -> tps) l.per_pass) in
  let ticks = d S.k_tick in
  let metrics =
    [
      m "core.begin_p50_us" (p50 S.k_begin);
      m "core.read_p50_us" (p50 S.k_read);
      m "core.update_p50_us" (p50 S.k_update);
      m "core.delegate_p50_us" (p50 S.k_delegate);
      m "core.rollback_p50_us" (p50 S.k_rollback);
      m "core.checkpoint_p50_us" (p50 S.k_checkpoint);
      m "core.commit_p50_us" (p50 S.k_commit);
      m "core.commit_p99_us" (percentile (d S.k_commit) 0.99);
      m "wal.appends_per_commit" (ratio ld.io.appends commits);
      m "wal.bytes_per_append" (ratio ld.io.size_sum ld.io.appends);
      m "wal.forces_per_commit" (ratio ld.io.forces commits);
      m "wal.restart_decodes_per_record" (med (fun r -> r.decodes_per_record));
      m "storage.pool_hit_ratio" (ratio ld.io.hits (ld.io.hits + ld.io.misses));
      m "storage.evictions_per_commit" (ratio ld.io.evictions commits);
      m "storage.page_writes_per_commit" (ratio ld.io.page_writes commits);
      m "storage.restart_page_reads" (med (fun r -> float_of_int r.page_reads));
      m "txn.scope_probes_per_delegate" (ratio ld.io.probes ld.delegates);
      m "recovery.forward_records"
        (med (fun r -> float_of_int (sum_reports (fun x -> x.Report.forward_records) r.off_reports)));
      m "recovery.redo_applied"
        (med (fun r -> float_of_int (sum_reports (fun x -> x.Report.redo_applied) r.off_reports)));
      m "recovery.backward_examined"
        (med (fun r -> float_of_int (sum_reports (fun x -> x.Report.backward_examined) r.off_reports)));
      m "recovery.undos"
        (med (fun r -> float_of_int (sum_reports (fun x -> x.Report.undos) r.off_reports)));
      m "recovery.forward_s" (med (fun r -> prof_s "restart.forward" r.off_reports));
      m "recovery.backward_s" (med (fun r -> prof_s "restart.backward" r.off_reports));
      m "recovery.open_records"
        (med_od (fun r -> float_of_int (sum_reports (fun x -> x.Report.forward_records) r.od_reports)));
      m "recovery.backlog_at_open" (med_od (fun r -> float_of_int r.backlog));
      m "recovery.step_p50_us"
        (percentile (S.durations sp ~phase:S.k_phase_drain S.k_recovery_step) 0.5);
      m "maintenance.tick_p99_us" (percentile ticks 0.99);
      m "maintenance.busy_s" (Array.fold_left ( +. ) 0. ticks *. 1e-6);
      m "maintenance.checkpoints" (float_of_int ld.checkpoints);
      m "maintenance.records_truncated_per_commit" (ratio ld.truncated commits);
      m "shard.migrations_per_commit" (ratio ld.migrations commits);
      m "shard.migrate_p50_us" (p50 S.k_migrate);
      m "shard.forces_per_migration" (ratio ld.migrate_forces ld.migrations);
      m "shard.restart_resolved" (med (fun r -> float_of_int r.resolved));
      m "obs.tracing_slowdown" (tps plain /. tps ld);
      m "obs.span_coverage_load" (S.coverage sp ~phases:[ S.k_phase_load ]);
      m "obs.span_coverage_restart"
        (S.coverage sp ~phases:[ S.k_phase_restart; S.k_phase_open; S.k_phase_drain ]);
    ]
  in
  S.write sp spans_out;
  metrics

let run ?(pooled = false) ~workload ~seed ~seconds ~trace ~small ~dir () =
  let shape = Inputs.shape ~small workload in
  let pool =
    if pooled && shape.shards > 1 then
      Some (Ariesrh_shard.Shard_pool.create shape.shards)
    else None
  in
  let ctx = { shape; seed; pool } in
  let c = { errors = []; attempted = 0; failed = 0 } in
  Fun.protect ~finally:(fun () -> Option.iter Ariesrh_shard.Shard_pool.shutdown pool)
  @@ fun () ->
  let metrics =
    if trace then begin
      Ariesrh_storage.Backend.mkdir_p dir;
      let spans_out =
        Filename.concat dir (Printf.sprintf "spans-%s.tsv" workload)
      in
      run_traced c ctx ~seconds ~spans_out
    end
    else run_untraced c ctx ~seconds
  in
  {
    correct = c.errors = [];
    attempted = c.attempted;
    failed = c.failed;
    metrics;
    errors = List.rev c.errors;
  }

let to_json r =
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
      (if Float.is_finite m.value then m.value else 0.)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
