(* Host-time spans around the benchmark's calls into the simulator's
   layers: (id, name, parent, start, end), kept in memory and written out
   once the run is over. Never read by the simulation. *)

type span = { id : int; name : string; parent : int; start_s : float; end_s : float }

type t = {
  origin : float;
  mutable next : int;
  mutable open_ : int list;  (* innermost first *)
  mutable closed : span list;  (* newest first *)
}

(* Process CPU time (user + system). The simulator is a single-threaded
   batch job, so this is its cost without the time the process waits for a
   core while other load runs on the machine. *)
let clock () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let create () = { origin = clock (); next = 0; open_ = []; closed = [] }

let time t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = clock () in
  let finish () =
    let stop = clock () in
    t.open_ <- List.tl t.open_;
    t.closed <-
      { id; name; parent; start_s = start -. t.origin; end_s = stop -. t.origin } :: t.closed;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let write t file =
  let oc = open_out file in
  output_string oc "{\"spans\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.start_s s.end_s)
    (spans t);
  output_string oc "\n]}\n";
  close_out oc
