let names =
  [|
    "begin"; "read"; "update"; "delegate"; "savepoint"; "rollback"; "commit";
    "abort"; "checkpoint"; "truncate"; "flush_commits"; "tick"; "migrate";
    "crash"; "recover"; "recovery_step"; "await_recovery"; "phase.load";
    "phase.restart"; "phase.open"; "phase.drain";
  |]

let k_begin = 0
let k_read = 1
let k_update = 2
let k_delegate = 3
let k_savepoint = 4
let k_rollback = 5
let k_commit = 6
let k_abort = 7
let k_checkpoint = 8
let k_truncate = 9
let k_flush_commits = 10
let k_tick = 11
let k_migrate = 12
let k_crash = 13
let k_recover = 14
let k_recovery_step = 15
let k_await_recovery = 16
let k_phase_load = 17
let k_phase_restart = 18
let k_phase_open = 19
let k_phase_drain = 20
let name k = names.(k)

(* Spans live off the OCaml heap in fixed-size chunks of three ints
   each — tag, start, end — so recording one neither copies earlier
   spans when the log grows nor gives the garbage collector more to
   scan. [tag] packs the kind (low 8 bits) with the parent span id
   (+1, so 0 means "no parent"). *)
type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_bits = 18
let chunk_spans = 1 lsl chunk_bits

type t = {
  on : bool;
  mutable n : int;
  mutable chunks : chunk array;
  mutable parent : int;
}

(* a new chunk is touched in full at once, so recording into it takes
   no page faults *)
let new_chunk () =
  let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (3 * chunk_spans) in
  Bigarray.Array1.fill c 0;
  c

let create ~enabled =
  {
    on = enabled;
    n = 0;
    chunks = (if enabled then [| new_chunk () |] else [||]);
    parent = -1;
  }

let field t i k = t.chunks.(i lsr chunk_bits).{(3 * (i land (chunk_spans - 1))) + k}

let set t i k v =
  t.chunks.(i lsr chunk_bits).{(3 * (i land (chunk_spans - 1))) + k} <- v

let push t kind ~parent a b =
  let i = t.n in
  if i lsr chunk_bits = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| new_chunk () |];
  set t i 0 (kind lor ((parent + 1) lsl 8));
  set t i 1 a;
  set t i 2 b;
  t.n <- i + 1;
  i

let start t = if t.on then Clock.now_ns () else 0

let stop t kind a =
  if t.on then ignore (push t kind ~parent:t.parent a (Clock.now_ns ()))

let phase t kind f =
  if not t.on then f ()
  else begin
    let id = push t kind ~parent:t.parent (Clock.now_ns ()) 0 in
    let outer = t.parent in
    t.parent <- id;
    Fun.protect
      ~finally:(fun () ->
        t.parent <- outer;
        set t id 2 (Clock.now_ns ()))
      f
  end

let kind_of t i = field t i 0 land 0xff
let parent_of t i = (field t i 0 lsr 8) - 1
let t0 t i = field t i 1
let t1 t i = field t i 2

let durations t ~phase kind =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    let p = parent_of t i in
    if kind_of t i = kind && p >= 0 && kind_of t p = phase then
      acc := (float_of_int (t1 t i - t0 t i) *. 1e-3) :: !acc
  done;
  Array.of_list !acc

let phase_seconds t kind =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if kind_of t i = kind then s := !s + (t1 t i - t0 t i)
  done;
  Clock.seconds !s

let coverage t ~phases =
  let covered = ref 0 in
  for i = 0 to t.n - 1 do
    let p = parent_of t i in
    if p >= 0 && List.mem (kind_of t p) phases then
      covered := !covered + (t1 t i - t0 t i)
  done;
  let wall = List.fold_left (fun a k -> a +. phase_seconds t k) 0. phases in
  if wall <= 0. then 0. else Clock.seconds !covered /. wall

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let origin = if t.n = 0 then 0 else t0 t 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" i (parent_of t i)
      (name (kind_of t i)) (t0 t i - origin) (t1 t i - origin)
  done
