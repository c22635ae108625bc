(** One benchmark run of one workload: set-up, then a closed-loop load
    phase whose epochs alternate with set-ups and crash images each
    restarted offline and on demand — with every output checked against
    {!Expect}. *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;  (** script operations issued to every engine of the run *)
  failed : int;  (** of those, refused by the engine *)
  metrics : metric list;
  errors : string list;  (** what failed a correctness check *)
}

val end_to_end : (string * string) list
(** Names and units of the metrics an untraced run reports. *)

val per_layer : (string * string) list
(** Names and units of the metrics a traced run reports. *)

val run :
  ?pooled:bool ->
  workload:string ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  small:bool ->
  dir:string ->
  unit ->
  result
(** A traced run writes its span log to [dir/spans-<workload>.tsv].
    [pooled] (default [false]) runs the load engine's shards on a
    [Shard_pool], one domain each, for reference figures only: a hop
    through the pool's spin-then-sleep wait is answered in microseconds
    or at timer granularity, so pooled throughput is bimodal. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of an unsorted sample ([0.] when empty). *)

val to_json : result -> string
(** The result as the one-line JSON object the command prints last. *)
