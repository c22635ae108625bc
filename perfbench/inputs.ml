module Gen = Ariesrh_workload.Gen
module Script = Ariesrh_workload.Script
module Prng = Ariesrh_util.Prng

type op =
  | Act of Script.action
  | Pull of { txn : int; obj : int; delta : int }

type script = {
  ops : op array;
  txns : int;
  tags : int;
  actions : Script.action array;
}

type shape = {
  name : string;
  shards : int;
  n_local : int;
  roaming : int;
  buffer_pages : int;
  group_commit : int;
  log_capacity_bytes : int option;
  record_cache : int;
  governor : bool;
  truncate_on_checkpoint : bool;
  spec : Gen.spec;
  rounds : int;
  crash_spec : Gen.spec;
  pull_pct : int;
  epoch_passes : int;
  images : int;
  drains : int;
  setups : int;
}

let workloads = [ "oltp"; "durable"; "xshard" ]

(* Sizes (8 objects per page): oltp's 4096 objects are 512 pages
   against a 64-page pool, and its crash log (~7.8k durable records) is
   nearly twice its 4096-record decoded-record cache (the crash script
   is 8000 steps, not more, because an on-demand drain of it costs
   pending pages x log length: 2.3 s here, 5.4 s at 15000 steps).
   durable's 512
   objects (64 pages) fit its 128-page pool and its crash log (~6.6k
   records) fits the cache. xshard's two shards draw 256 objects each
   (+32 roaming, 68 pages per shard) against 64-page pools. durable and
   xshard share one flush policy: group commit, 128 to a batch. *)
let shape ~small name =
  let s full tiny = if small then tiny else full in
  let base =
    {
      Gen.default with
      max_concurrent = 8;
      theta = 0.6;
      terminate_all = true;
    }
  in
  match name with
  | "oltp" ->
      let spec =
        {
          base with
          n_objects = 4096;
          n_steps = s 4000 300;
          p_begin = 0.10;
          p_read = 0.15;
          p_write = 0.18;
          p_add = 0.18;
          p_delegate = 0.15;
          p_savepoint = 0.05;
          p_rollback = 0.04;
          p_commit = 0.10;
          p_abort = 0.05;
          p_checkpoint = 0.002;
        }
      in
      {
        name;
        shards = 1;
        n_local = 4096;
        roaming = 0;
        buffer_pages = 64;
        group_commit = 0;
        log_capacity_bytes = None;
        record_cache = 4096;
        governor = false;
        truncate_on_checkpoint = true;
        spec;
        rounds = s 24 2;
        crash_spec =
          {
            spec with
            n_steps = s 8000 600;
            p_checkpoint = 0.;
            terminate_all = false;
          };
        pull_pct = 0;
        epoch_passes = s 12 2;
        images = s 7 2;
        (* an on-demand drain of this image takes seconds: it replays
           each pending page's whole redo slice on its own, so only four
           on-demand restarts are drained *)
        drains = s 4 1;
        setups = s 5 2;
      }
  | "durable" ->
      let spec =
        {
          base with
          n_objects = 512;
          n_steps = s 3000 300;
          p_begin = 0.12;
          p_read = 0.15;
          p_write = 0.25;
          p_add = 0.25;
          p_delegate = 0.02;
          p_savepoint = 0.02;
          p_rollback = 0.01;
          p_commit = 0.12;
          p_abort = 0.03;
          p_checkpoint = 0.;
        }
      in
      {
        name;
        shards = 1;
        n_local = 512;
        roaming = 0;
        buffer_pages = 128;
        group_commit = 128;
        log_capacity_bytes = Some (8 lsl 20);
        record_cache = 8192;
        governor = true;
        truncate_on_checkpoint = false;
        spec;
        rounds = s 24 2;
        crash_spec = { spec with n_steps = s 6000 300; terminate_all = false };
        pull_pct = 0;
        epoch_passes = s 20 2;
        images = s 9 2;
        drains = s max_int 2;  (* every pair *)
        setups = s 5 2;
      }
  | "xshard" ->
      let spec =
        {
          base with
          n_objects = 256;
          n_steps = s 1500 150;
          max_concurrent = 4;
          p_begin = 0.12;
          p_read = 0.15;
          p_write = 0.25;
          p_add = 0.25;
          p_delegate = 0.04;
          p_savepoint = 0.02;
          p_rollback = 0.01;
          p_commit = 0.12;
          p_abort = 0.03;
          p_checkpoint = 0.0002;
        }
      in
      {
        name;
        shards = 2;
        n_local = 256;
        roaming = 32;
        buffer_pages = 64;
        group_commit = 128;
        log_capacity_bytes = None;
        record_cache = 8192;
        governor = false;
        truncate_on_checkpoint = true;
        spec;
        rounds = s 24 2;
        crash_spec =
          { spec with n_steps = s 3000 150; p_checkpoint = 0.; terminate_all = false };
        (* a small round has few begins: pull more often so it still moves
           objects *)
        pull_pct = s 5 20;
        epoch_passes = s 12 2;
        images = s 9 2;
        drains = s max_int 2;  (* every pair *)
        setups = s 5 2;
      }
  | w -> invalid_arg ("unknown workload " ^ w)

let n_objects sh = (sh.shards * sh.n_local) + sh.roaming
let oid sh ~shard o = (o * sh.shards) + shard
let roaming_oid sh j = (sh.shards * sh.n_local) + j

(* Map one shard's generated script into the global index spaces:
   transaction t of shard s is [t * shards + s], likewise tags and
   objects, so the shard's objects are exactly those homed on it. *)
let globalise sh ~shard script =
  let n = sh.shards in
  let x t = (t * n) + shard and o v = oid sh ~shard v in
  List.map
    (function
      | Script.Begin t -> Script.Begin (x t)
      | Script.Read (t, v) -> Script.Read (x t, o v)
      | Script.Write (t, v, w) -> Script.Write (x t, o v, w)
      | Script.Add (t, v, d) -> Script.Add (x t, o v, d)
      | Script.Delegate (a, b, v) -> Script.Delegate (x a, x b, o v)
      | Script.Savepoint (t, g) -> Script.Savepoint (x t, (g * n) + shard)
      | Script.Rollback_to (t, g) -> Script.Rollback_to (x t, (g * n) + shard)
      | Script.Commit t -> Script.Commit (x t)
      | Script.Abort t -> Script.Abort (x t)
      | Script.Checkpoint -> Script.Checkpoint)
    script

(* Interleave the shards' scripts one action at a time, and after ~pull_pct%
   of the begins let the new transaction pull a roaming object no open
   transaction holds. Homes are tracked so the crash can interrupt a
   transfer that really moves an object. *)
let assemble sh rng ~homes per_shard =
  let held = Array.make sh.roaming (-1) in
  let out = ref [] in
  let emit a = out := a :: !out in
  let queues = Array.map (fun l -> ref l) per_shard in
  let live = ref true in
  while !live do
    live := false;
    Array.iter
      (fun q ->
        match !q with
        | [] -> ()
        | a :: rest ->
            live := true;
            q := rest;
            emit (Act a);
            (match a with
            | Script.Begin t when sh.roaming > 0 && Prng.int rng 100 < sh.pull_pct
              ->
                let free = List.filter (fun j -> held.(j) < 0) (List.init sh.roaming Fun.id) in
                if free <> [] then begin
                  let j = List.nth free (Prng.int rng (List.length free)) in
                  held.(j) <- t;
                  homes.(j) <- t mod sh.shards;
                  emit (Pull { txn = t; obj = roaming_oid sh j; delta = 1 + Prng.int rng 9 })
                end
            | Script.Commit t | Script.Abort t ->
                Array.iteri (fun j h -> if h = t then held.(j) <- -1) held
            | _ -> ()))
      queues
  done;
  let ops = Array.of_list (List.rev !out) in
  let txns = ref 0 and tags = ref 0 in
  let actions =
    Array.map
      (fun op ->
        let a =
          match op with
          | Act a -> a
          | Pull { txn; obj; delta } -> Script.Add (txn, obj, delta)
        in
        (match a with
        | Script.Begin t -> txns := max !txns (t + 1)
        | Script.Savepoint (_, g) -> tags := max !tags (g + 1)
        | _ -> ());
        a)
      ops
  in
  ({ ops; txns = !txns; tags = !tags; actions }, held)

let make_script sh spec rng ~homes =
  let per_shard =
    Array.init sh.shards (fun shard ->
        globalise sh ~shard
          (Gen.generate { spec with n_objects = sh.n_local }
             ~seed:(Int64.of_int (Prng.int rng (1 lsl 30)))))
  in
  assemble sh rng ~homes per_shard

type image = {
  crash : script;
  crash_homes : int array;
  crash_pull : int * int;
  crash_after_in : bool;
}

type t = { shape : shape; rounds : script array; images : image array }

let generate sh ~seed =
  let rng = Prng.create (Int64.of_int seed) in
  let homes = Array.init sh.roaming (fun j -> roaming_oid sh j mod sh.shards) in
  let rounds =
    Array.init sh.rounds (fun _ -> fst (make_script sh sh.spec rng ~homes))
  in
  let image _ =
    let crash_homes = Array.init sh.roaming (fun j -> roaming_oid sh j mod sh.shards) in
    let crash, held = make_script sh sh.crash_spec rng ~homes:crash_homes in
    let crash_pull =
      if sh.roaming = 0 then (0, 0)
      else
        let free = List.filter (fun j -> held.(j) < 0) (List.init sh.roaming Fun.id) in
        let j = List.nth free (Prng.int rng (List.length free)) in
        (roaming_oid sh j, (crash_homes.(j) + 1) mod sh.shards)
    in
    { crash; crash_homes; crash_pull; crash_after_in = Prng.bool rng }
  in
  { shape = sh; rounds; images = Array.init sh.images image }

(* A transaction whose commit was not acknowledged may be a loser at
   restart (an abort's own records need not be durable at the crash),
   and an on-demand restart refuses the objects a loser covers until it
   is undone. *)
let probe sh (t : image) ~acked =
  let avoid = Array.make (n_objects sh) false in
  Array.iter
    (function
      | Script.Write (x, o, _) | Script.Add (x, o, _) ->
          if not (acked x) then avoid.(o) <- true
      | Script.Delegate (a, b, o) ->
          if not (acked a && acked b) then avoid.(o) <- true
      | _ -> ())
    t.crash.actions;
  let rec find k =
    if k = sh.n_local then failwith "no probe object free of possible losers"
    else
      let o = oid sh ~shard:0 k in
      if avoid.(o) then find (k + 1) else o
  in
  find 0
