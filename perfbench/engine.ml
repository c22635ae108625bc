open Ariesrh_types
module Db = Ariesrh_core.Db
module Errors = Ariesrh_core.Errors
module Config = Ariesrh_core.Config
module Sharded = Ariesrh_shard.Sharded
module Governor = Ariesrh_maintenance.Governor
module Script = Ariesrh_workload.Script
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module S = Spans

type kind = Single of Db.t | Multi of Sharded.t

type t = {
  shape : Inputs.shape;
  kind : kind;
  dbs : Db.t array;
  gov : Governor.t option;
  fault : Fault.t option;
  mutable sp : S.t;
  mutable xids : Sharded.xid array;
  mutable sps : Lsn.t array;
  pending : int array;
      (* open transactions, three ints per slot (shard-tagged engine
         xid, script txn, begin ns), indexed by the tagged xid modulo
         [slots]: no allocation on the hot path *)
  mutable lat : float array;
  mutable nlat : int;
  mutable acks : int;
  mutable ops : int;
  mutable failed : int;
  mutable track : (int, unit) Hashtbl.t option;
  mutable migrate_forces : int;
}

(* Far more than the transactions one script keeps open at once, so two
   open ones never share a slot; [pend] checks that. *)
let slots = 1 lsl 16

let tag ~shard xid = (Xid.to_int xid * 8) + shard

let pend t ~shard xid ~txn t0 =
  let key = tag ~shard xid in
  let i = 3 * (key land (slots - 1)) in
  if t.pending.(i) <> 0 then failwith "two open transactions share a slot";
  t.pending.(i) <- key;
  t.pending.(i + 1) <- txn;
  t.pending.(i + 2) <- t0

let unpend t ~shard xid =
  let key = tag ~shard xid in
  let i = 3 * (key land (slots - 1)) in
  if t.pending.(i) = key then begin
    t.pending.(i) <- 0;
    Some i
  end
  else None

let on_ack t shard xid =
  match unpend t ~shard xid with
  | None -> ()
  | Some i ->
      let txn = t.pending.(i + 1) and t0 = t.pending.(i + 2) in
      let us = float_of_int (Clock.now_ns () - t0) *. 1e-3 in
      if t.nlat = Array.length t.lat then
        t.lat <- Array.append t.lat (Array.make (max 1024 t.nlat) 0.);
      t.lat.(t.nlat) <- us;
      t.nlat <- t.nlat + 1;
      t.acks <- t.acks + 1;
      Option.iter (fun h -> Hashtbl.replace h txn ()) t.track

let create ?pool (sh : Inputs.shape) ~mode ~tracing ~live_fault sp =
  let config =
    Config.make ~n_objects:(Inputs.n_objects sh) ~objects_per_page:8
      ~buffer_capacity:sh.buffer_pages ~impl:Config.Rh ~locking:true
      ~group_commit:sh.group_commit ?log_capacity_bytes:sh.log_capacity_bytes
      ~record_cache:sh.record_cache
      ~recovery_mode:mode ~shards:sh.shards ()
  in
  let fault = if live_fault then Some (Fault.create ~seed:1L ()) else None in
  let kind =
    if sh.shards = 1 then Single (Db.create ?fault ~tracing config)
    else Multi (Sharded.create ?fault ?pool ~tracing config)
  in
  let dbs = match kind with Single db -> [| db |] | Multi s -> Sharded.dbs s in
  let gov =
    match kind with
    | Single db when sh.governor ->
        (* an empty escalation ladder: the governor checkpoints and
           truncates but never refuses or victimizes, so no operation of
           the script can fail *)
        Some
          (Governor.create
             ~config:{ Governor.default_config with policies = [] }
             db)
    | _ -> None
  in
  let t =
    {
      shape = sh;
      kind;
      dbs;
      gov;
      fault;
      sp;
      xids = [||];
      sps = [||];
      pending = Array.make (3 * slots) 0;
      lat = [||];
      nlat = 0;
      acks = 0;
      ops = 0;
      failed = 0;
      track = None;
      migrate_forces = 0;
    }
  in
  Array.iteri
    (fun i db -> Db.set_commit_durable_hook db (Some (on_ack t i)))
    dbs;
  t

let dbs t = t.dbs
let set_spans t sp = t.sp <- sp

let log_forces t =
  Array.fold_left
    (fun n db ->
      n + (Log_store.stats (Db.log_store db)).Ariesrh_wal.Log_stats.flushes)
    0 t.dbs

let migrate_forces t = t.migrate_forces
let sharded t = match t.kind with Multi s -> Some s | Single _ -> None
let governor t = t.gov
let fault t = t.fault
let ops t = t.ops
let failed t = t.failed
let commits_acked t = t.acks

let take_latencies_us t =
  let l = Array.sub t.lat 0 t.nlat in
  t.nlat <- 0;
  l

let track_acks t = t.track <- Some (Hashtbl.create 256)

let acked t x =
  match t.track with Some h -> Hashtbl.mem h x | None -> false

let timed t k f =
  let t0 = S.start t.sp in
  let r = f () in
  S.stop t.sp k t0;
  r

(* One script operation as one span; no closure or other allocation of
   the benchmark's own between the two clock readings and the next. *)
let exec_op t op =
  let x i = t.xids.(i) in
  let oid = Oid.of_int in
  let t0 = S.start t.sp in
  let kind =
    match (t.kind, op) with
    | _, Inputs.Act (Script.Begin i) ->
        let shard = i mod t.shape.shards in
        let b = Clock.now_ns () in
        let xi =
          match t.kind with
          | Single db -> { Sharded.shard = 0; txn = Db.begin_txn db }
          | Multi s -> Sharded.begin_txn s ~shard
        in
        S.stop t.sp S.k_begin b;
        pend t ~shard:xi.shard xi.txn ~txn:i b;
        t.xids.(i) <- xi;
        -1
    | Single db, Inputs.Act a -> (
        match a with
        | Script.Begin _ -> assert false
        | Script.Read (i, o) ->
            ignore (Db.read db (x i).txn (oid o));
            S.k_read
        | Script.Write (i, o, v) ->
            Db.write db (x i).txn (oid o) v;
            S.k_update
        | Script.Add (i, o, d) ->
            Db.add db (x i).txn (oid o) d;
            S.k_update
        | Script.Delegate (a, b, o) ->
            Db.delegate db ~from_:(x a).txn ~to_:(x b).txn (oid o);
            S.k_delegate
        | Script.Savepoint (i, g) ->
            t.sps.(g) <- Db.savepoint db (x i).txn;
            S.k_savepoint
        | Script.Rollback_to (i, g) ->
            Db.rollback_to db (x i).txn t.sps.(g);
            S.k_rollback
        | Script.Commit i ->
            Db.commit db (x i).txn;
            S.k_commit
        | Script.Abort i ->
            ignore (unpend t ~shard:0 (x i).txn);
            Db.abort db (x i).txn;
            S.k_abort
        | Script.Checkpoint ->
            Db.checkpoint db;
            S.k_checkpoint)
    | Multi s, Inputs.Act a -> (
        match a with
        | Script.Begin _ -> assert false
        | Script.Read (i, o) ->
            ignore (Sharded.read s (x i) (oid o));
            S.k_read
        | Script.Write (i, o, v) ->
            Sharded.write s (x i) (oid o) v;
            S.k_update
        | Script.Add (i, o, d) ->
            Sharded.add s (x i) (oid o) d;
            S.k_update
        | Script.Delegate (a, b, o) ->
            Sharded.delegate s ~from_:(x a) ~to_:(x b) (oid o);
            S.k_delegate
        | Script.Savepoint (i, g) ->
            t.sps.(g) <- Sharded.savepoint s (x i);
            S.k_savepoint
        | Script.Rollback_to (i, g) ->
            Sharded.rollback_to s (x i) t.sps.(g);
            S.k_rollback
        | Script.Commit i ->
            Sharded.commit s (x i);
            S.k_commit
        | Script.Abort i ->
            ignore (unpend t ~shard:(x i).shard (x i).txn);
            Sharded.abort s (x i);
            S.k_abort
        | Script.Checkpoint ->
            Sharded.checkpoint s;
            S.k_checkpoint)
    | Single _, Inputs.Pull _ ->
        invalid_arg "Engine.exec: pull on a single-shard engine"
    | Multi s, Inputs.Pull { txn; obj; delta } ->
        let xi = x txn in
        if Sharded.home s (oid obj) <> xi.shard then begin
          let f0 = log_forces t in
          Sharded.migrate s (oid obj) ~target:xi.shard;
          S.stop t.sp S.k_migrate t0;
          t.migrate_forces <- t.migrate_forces + log_forces t - f0
        end;
        let u = S.start t.sp in
        Sharded.add s xi (oid obj) delta;
        S.stop t.sp S.k_update u;
        -1
  in
  if kind >= 0 then S.stop t.sp kind t0;
  if kind = S.k_checkpoint && t.shape.truncate_on_checkpoint then begin
    let c = S.start t.sp in
    (match t.kind with
    | Single db -> ignore (Db.truncate_log db)
    | Multi s -> ignore (Sharded.truncate_log s));
    S.stop t.sp S.k_truncate c
  end

(* A typed refusal fails that one operation: it is counted and the
   script goes on. *)
let exec t op =
  t.ops <- t.ops + 1;
  (try exec_op t op with
  | Errors.Conflict _ | Errors.No_such_txn _ | Errors.Txn_not_active _
  | Errors.Not_responsible _ | Errors.Overloaded _ | Errors.Xfer_refused _
  | Errors.Recovering _ ->
      t.failed <- t.failed + 1);
  match t.gov with
  | Some g ->
      let c = S.start t.sp in
      Governor.tick g;
      S.stop t.sp S.k_tick c
  | None -> ()

let run t (s : Inputs.script) =
  if Array.length t.xids < s.txns then
    t.xids <- Array.make s.txns { Sharded.shard = 0; txn = Xid.of_int 1 };
  if Array.length t.sps < s.tags then t.sps <- Array.make s.tags Lsn.nil;
  Array.iter (exec t) s.ops

let flush_commits t =
  timed t S.k_flush_commits (fun () ->
      match t.kind with
      | Single db -> Db.flush_commits db
      | Multi s -> Sharded.flush_commits s)

(* Acknowledge every open commit whose Commit record is already durable.
   A flush made for another reason (an abort's force, a transfer's forced
   record, a WAL-rule eviction) can harden a pending group; [Db.crash]
   then drops the group without firing the hook for those commits, yet
   they survive restart. The log is read raw, past the decoded-record
   cache, so the restart that follows finds the cache as the crash left
   it. *)
let ack_durable_commits t =
  let before = t.acks in
  Array.iteri
    (fun shard db ->
      let log = Db.log_store db in
      let lo = Lsn.to_int (Log_store.truncated_below log) - 1 in
      for idx = lo to Lsn.to_int (Log_store.durable log) - 1 do
        match Record.decode (Log_store.raw_get log ~idx) with
        | Ok { Record.xid = Some x; body = Record.Commit; _ } -> on_ack t shard x
        | Ok _ -> ()
        | Error _ -> failwith "a durable log record does not decode"
      done)
    t.dbs;
  t.acks - before

let crash t =
  timed t S.k_crash (fun () ->
      match t.kind with Single db -> Db.crash db | Multi s -> Sharded.crash s);
  Array.fill t.pending 0 (Array.length t.pending) 0;
  Option.iter Governor.note_crash t.gov

let recover t =
  timed t S.k_recover (fun () ->
      match t.kind with
      | Single db -> [| Db.recover db |]
      | Multi s -> Sharded.recover s)

let recovering t =
  match t.kind with Single db -> Db.recovering db | Multi s -> Sharded.recovering s

let recovery_backlog t =
  match t.kind with
  | Single db -> Db.recovery_backlog db
  | Multi s -> Sharded.recovery_backlog s

let recovery_step t =
  timed t S.k_recovery_step (fun () ->
      match t.kind with
      | Single db -> Db.recovery_step db
      | Multi s -> Sharded.recovery_step s)

let await_recovery t =
  timed t S.k_await_recovery (fun () ->
      match t.kind with
      | Single db -> Db.await_recovery db
      | Multi s -> Sharded.await_recovery s)

let migrate t obj ~target =
  match t.kind with
  | Single _ -> invalid_arg "Engine.migrate: single-shard engine"
  | Multi s ->
      timed t S.k_migrate (fun () -> Sharded.migrate s (Oid.of_int obj) ~target)

let probe_commit t obj =
  let probe =
    {
      Inputs.ops =
        Inputs.
          [|
            Act (Script.Begin 0); Act (Script.Add (0, obj, 1)); Act (Script.Commit 0);
          |];
      txns = 1;
      tags = 0;
      actions = [||];
    }
  in
  let acks = t.acks in
  run t probe;
  if t.acks = acks then flush_commits t;
  if t.acks = acks then failwith "probe commit was not acknowledged durable"

let peek_all t =
  match t.kind with Single db -> Db.peek_all db | Multi s -> Sharded.peek_all s

let home t o =
  match t.kind with Single _ -> 0 | Multi s -> Sharded.home s (Oid.of_int o)

let audit t =
  match t.kind with Single db -> Db.audit db | Multi s -> Sharded.audit s

let resolved t =
  match t.kind with
  | Single _ -> 0
  | Multi s ->
      let c = Sharded.counters s in
      c.Sharded.resolved_forward + c.Sharded.resolved_back

let migrations t =
  match t.kind with
  | Single _ -> 0
  | Multi s -> (Sharded.counters s).Sharded.migrations

let close t =
  match t.kind with Single db -> Db.close db | Multi s -> Sharded.close s
