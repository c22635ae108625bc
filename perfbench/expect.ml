module Script = Ariesrh_workload.Script

(* A responsibility group: the updates one transaction holds on one
   object. Delegation re-owns the delegator's group and unions it into
   the delegatee's, so every member's responsible transaction is the
   owner at its root. *)
type group = { mutable link : group option; mutable owner : int }

let rec root g =
  match g.link with
  | None -> g
  | Some p ->
      let r = root p in
      if r != p then g.link <- Some r;
      r

type upd = {
  obj : int;
  set : bool;  (* Set v, else Add v *)
  v : int;
  idx : int;
  group : group;
  mutable dead : bool;
}

let apply ~values ~committed ?crash_at script =
  let n = match crash_at with None -> Array.length script | Some c -> min c (Array.length script) in
  let held : (int * int, group) Hashtbl.t = Hashtbl.create 64 in
  let savepoints : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let ups = ref [||] and nups = ref 0 in
  let push u =
    if !nups = Array.length !ups then
      ups := Array.append !ups (Array.make (max 16 !nups) u);
    !ups.(!nups) <- u;
    incr nups
  in
  let update idx t o ~set v =
    let group =
      match Hashtbl.find_opt held (t, o) with
      | Some g -> g
      | None ->
          let g = { link = None; owner = t } in
          Hashtbl.replace held (t, o) g;
          g
    in
    push { obj = o; set; v; idx; group; dead = false }
  in
  for idx = 0 to n - 1 do
    match script.(idx) with
    | Script.Begin _ | Script.Read _ | Script.Checkpoint | Script.Commit _
    | Script.Abort _ ->
        ()
    | Script.Write (t, o, v) -> update idx t o ~set:true v
    | Script.Add (t, o, d) -> update idx t o ~set:false d
    | Script.Delegate (from_, to_, o) -> (
        match Hashtbl.find_opt held (from_, o) with
        | None -> ()
        | Some g ->
            Hashtbl.remove held (from_, o);
            let g = root g in
            g.owner <- to_;
            (match Hashtbl.find_opt held (to_, o) with
            | Some h -> g.link <- Some (root h)
            | None -> Hashtbl.replace held (to_, o) g))
    | Script.Savepoint (_, tag) -> Hashtbl.replace savepoints tag idx
    | Script.Rollback_to (t, tag) ->
        let sp = Hashtbl.find savepoints tag in
        let i = ref (!nups - 1) in
        while !i >= 0 && !ups.(!i).idx > sp do
          let u = !ups.(!i) in
          if (root u.group).owner = t then u.dead <- true;
          decr i
        done
  done;
  for i = 0 to !nups - 1 do
    let u = !ups.(i) in
    if (not u.dead) && committed (root u.group).owner then
      values.(u.obj) <- (if u.set then u.v else values.(u.obj) + u.v)
  done

let expected_for ~n_objects ~committed ?crash_at script =
  let values = Array.make n_objects 0 in
  apply ~values ~committed ?crash_at (Array.of_list script);
  values
