(** What each workload runs, generated from the seed alone.

    A {e round} is a closed-loop stretch of traffic: one generator
    ({!Ariesrh_workload.Gen}) interleaves a bounded number of open
    transactions, and every transaction begun in a round ends in it.
    The load phase runs passes over the same rounds until its time is
    up, so every run attempts whole rounds of the same operations; each
    load engine serves a fixed number of passes, then a fresh one takes
    over, so what an engine holds does not grow with the run. The
    {e crash script} is generated the same way but leaves transactions
    in flight; it builds a crash image restarts are timed on. *)

type op =
  | Act of Ariesrh_workload.Script.action
      (** symbolic transaction indices are global within the script *)
  | Pull of { txn : int; obj : int; delta : int }
      (** cross-shard: migrate [obj] to [txn]'s shard, then add [delta] *)

type script = {
  ops : op array;
  txns : int;  (** transaction indices are [0 .. txns-1] *)
  tags : int;  (** savepoint tags are [0 .. tags-1] *)
  actions : Ariesrh_workload.Script.action array;
      (** [ops] as the oracle sees them: a pull is an [Add] *)
}

type shape = {
  name : string;
  shards : int;
  n_local : int;  (** objects per shard the generator draws from *)
  roaming : int;  (** objects only cross-shard pulls touch *)
  buffer_pages : int;  (** buffer pool capacity, per shard *)
  group_commit : int;
  log_capacity_bytes : int option;
  record_cache : int;  (** decoded-record cache of each shard's log, in records *)
  governor : bool;
  truncate_on_checkpoint : bool;
  spec : Ariesrh_workload.Gen.spec;  (** one round, per shard *)
  rounds : int;
  crash_spec : Ariesrh_workload.Gen.spec;
  pull_pct : int;  (** % of transactions that pull a roaming object *)
  epoch_passes : int;
      (** passes over the rounds one load engine serves before a fresh
          one replaces it *)
  images : int;
      (** distinct crash images; restarts cycle through them, each
          restarted offline and on demand *)
  drains : int;  (** at most this many on-demand restarts per run are drained *)
  setups : int;  (** set-ups per run, at least *)
}

val workloads : string list
val shape : small:bool -> string -> shape
val n_objects : shape -> int

val oid : shape -> shard:int -> int -> int
(** Global object of a shard-local generator object. *)

val roaming_oid : shape -> int -> int

(** One crash image: a crash script, and on multi-shard workloads the
    transfer the crash interrupts. *)
type image = {
  crash : script;
  crash_homes : int array;
      (** home shard of each roaming object after the crash script *)
  crash_pull : int * int;
      (** (roaming object, target shard) of the interrupted transfer *)
  crash_after_in : bool;
      (** the power fails just after the transfer's [Xfer_in] is durable
          (restart rolls it forward), else just after its [Xfer_out]
          (rolled back) *)
}

type t = {
  shape : shape;
  rounds : script array;
  images : image array;
      (** [shape.images] of them, so the restart figures average over
          several images *)
}

val generate : shape -> seed:int -> t

val probe : shape -> image -> acked:(int -> bool) -> int
(** The object the first transaction after a restart updates: homed on
    shard 0 and touched by no crash-script transaction that could be a
    loser, so an on-demand restart serves it without refusal. *)
