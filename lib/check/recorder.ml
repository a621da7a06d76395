open Simcore

(* One attempt's record, kept flat: a checked run holds one per decided or
   acknowledged transaction until the history is assembled. *)
type pending = {
  mutable p_start : Sim_time.t;
  mutable p_reads : int array;
      (* key, observed writer, key, writer, ... in first-observation order;
         a re-read replaces the writer in place *)
  mutable p_writes : int array;  (* key, value, ... in write-set order *)
  mutable p_decided : bool;
  mutable p_commit : Sim_time.t;  (* [no_commit] until the response arrives *)
}

let no_commit = -1

type t = {
  mutable on : bool;
  pend : (int, pending) Hashtbl.t;
  (* Install log: key, writer, key, writer, ... in the order writes first
     reached a replica's table. Populated by {!applied} at the store's put
     sites: the slot marks when a write actually reached a replica's table,
     not merely when its transaction decided, so a decided write lost to a
     crash occupies no slot. *)
  installs : int Vec.t;
  (* (txn, key) pairs already slotted, packed by [slot_id] — replicas of a
     partition each apply the same write; only the first install takes the
     slot. *)
  slotted : Int_table.t;
}

let create () =
  {
    on = false;
    pend = Hashtbl.create 64;
    installs = Vec.create ();
    slotted = Int_table.create ();
  }
let enable t = t.on <- true

let key_bits = 32

let slot_id ~txn ~key =
  if key < 0 || key lsr key_bits <> 0 || txn < 0 || txn lsr (62 - key_bits) <> 0 then
    invalid_arg "Recorder.applied: id out of range";
  (txn lsl key_bits) lor key

let pending t txn =
  match Hashtbl.find_opt t.pend txn with
  | Some p -> p
  | None ->
      let p =
        {
          p_start = Sim_time.zero;
          p_reads = [||];
          p_writes = [||];
          p_decided = false;
          p_commit = no_commit;
        }
      in
      Hashtbl.add t.pend txn p;
      p

let start t ~txn ~at = if t.on then (pending t txn).p_start <- at

(* Position of [key] in a flat key/value array, or -1. *)
let find_key a key =
  let rec go i = if i >= Array.length a then -1 else if a.(i) = key then i else go (i + 2) in
  go 0

let observe p ~weak ~key ~writer =
  let i = find_key p.p_reads key in
  if i < 0 then begin
    let n = Array.length p.p_reads in
    let a = Array.make (n + 2) key in
    Array.blit p.p_reads 0 a 0 n;
    a.(n + 1) <- writer;
    p.p_reads <- a
  end
  else if not weak then p.p_reads.(i + 1) <- writer

let read ?(weak = false) t ~txn ~key ~writer =
  if t.on then observe (pending t txn) ~weak ~key ~writer

let reads_from_kv t ~txn kv keys =
  if t.on then
    let p = pending t txn in
    Array.iter (fun key -> observe p ~weak:false ~key ~writer:(Store.Kv.writer kv key)) keys

let write_set t ~txn ~pairs =
  if t.on then begin
    let p = pending t txn in
    if not p.p_decided then begin
      p.p_decided <- true;
      let a = Array.make (2 * List.length pairs) 0 in
      List.iteri
        (fun i (key, value) ->
          a.(2 * i) <- key;
          a.((2 * i) + 1) <- value)
        pairs;
      p.p_writes <- a
    end
  end

let applied t ~txn ~key =
  if t.on then begin
    let id = slot_id ~txn ~key in
    if not (Int_table.mem t.slotted id) then begin
      Int_table.set t.slotted id 0;
      Vec.push t.installs key;
      Vec.push t.installs txn
    end
  end

let committed t ~txn ~at = if t.on then (pending t txn).p_commit <- at

let aborted t ~txn =
  if t.on then
    match Hashtbl.find_opt t.pend txn with
    | Some p when not p.p_decided -> Hashtbl.remove t.pend txn
    | _ -> () (* decided server-side; the response was lost, keep the writes *)

let acknowledged p = p.p_commit <> no_commit

let iter_reads f p =
  let a = p.p_reads in
  for i = 0 to (Array.length a / 2) - 1 do
    f a.(2 * i) a.((2 * i) + 1)
  done

(* Which recorded transactions belong in the history?

   Client-acknowledged ones, always. A transaction that reached a commit
   decision but whose client never saw the response (crash, partition, client
   timeout followed by a late decide) is *in doubt*: under the simulator's
   volatile-recovery fault model its writes may or may not have installed.
   Standard black-box treatment (Jepsen's :info ops, Elle): an in-doubt
   transaction joins the history only if an included transaction observed one
   of its writes — proof the write installed and became visible — computed to
   a fixpoint. Unobserved in-doubt transactions are dropped, together with
   their slots in the per-key version order; a read observing a writer that
   never reached a decision still surfaces as a dirty read downstream.

   The same grounding applies per key: an included in-doubt transaction
   keeps its version-order slot on key [k] only if some included transaction
   read its write on [k]. A late-replayed write nobody observed is
   unverifiable middle-version noise — no acknowledged read pins where it
   landed — and, carrying no client promise, it cannot justify failing the
   run. Acknowledged transactions always keep their slots. *)
let included_ids t =
  let included = Hashtbl.create (Hashtbl.length t.pend) in
  let queue = Queue.create () in
  let include_ id p =
    if not (Hashtbl.mem included id) then begin
      Hashtbl.replace included id ();
      Queue.add p queue
    end
  in
  Hashtbl.iter (fun id p -> if acknowledged p then include_ id p) t.pend;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    iter_reads
      (fun _key w ->
        match Hashtbl.find_opt t.pend w with
        | Some wp when wp.p_decided -> include_ w wp
        | _ -> ())
      p
  done;
  included

let history t : History.t =
  let included = included_ids t in
  let observed = Hashtbl.create 256 in
  Hashtbl.iter
    (fun id p ->
      if Hashtbl.mem included id then
        iter_reads (fun key w -> Hashtbl.replace observed (key, w) ()) p)
    t.pend;
  let acknowledged_id id =
    match Hashtbl.find_opt t.pend id with Some p -> acknowledged p | None -> false
  in
  let keep_slot key w =
    Hashtbl.mem included w && (acknowledged_id w || Hashtbl.mem observed (key, w))
  in
  let pairs a = List.init (Array.length a / 2) (fun i -> (a.(2 * i), a.((2 * i) + 1))) in
  let txns =
    Hashtbl.fold
      (fun id p acc ->
        if Hashtbl.mem included id then
          {
            History.id;
            start = p.p_start;
            commit = (if acknowledged p then Some p.p_commit else None);
            reads =
              List.map (fun (r_key, r_writer) -> { History.r_key; r_writer }) (pairs p.p_reads)
              |> List.sort (fun a b -> compare a.History.r_key b.History.r_key);
            writes = List.sort (fun (a, _) (b, _) -> compare a b) (pairs p.p_writes);
          }
          :: acc
        else acc)
      t.pend []
    |> List.sort (fun a b -> compare a.History.id b.History.id)
    |> Array.of_list
  in
  (* Per-key install order, most recent first, in a table filled in the
     order keys were first installed — the same layout, and so the same
     iteration order, as a table kept up to date at every install. *)
  let key_order = Hashtbl.create 64 in
  for i = 0 to (Vec.length t.installs / 2) - 1 do
    let key = Vec.get t.installs (2 * i) and txn = Vec.get t.installs ((2 * i) + 1) in
    match Hashtbl.find_opt key_order key with
    | Some order -> order := txn :: !order
    | None -> Hashtbl.add key_order key (ref [ txn ])
  done;
  let key_writers = Hashtbl.create (Hashtbl.length key_order) in
  Hashtbl.iter
    (fun key order ->
      let writers = List.filter (keep_slot key) (List.rev !order) in
      if writers <> [] then Hashtbl.add key_writers key (Array.of_list writers))
    key_order;
  { History.txns; key_writers }
