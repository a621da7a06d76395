(* A fixed-size Domain worker pool for farming out independent simulation
   runs. Each job is fully self-contained (fresh Engine/Rng/Cluster per
   run), so the only shared state is the work queue index and the result
   slots, each written by exactly one domain. *)

let configured : int option ref = ref None
let set_jobs n = configured := n

let jobs_for ~cells =
  let requested =
    match !configured with Some n -> n | None -> Domain.recommended_domain_count ()
  in
  max 1 (min requested (max 1 cells))

(* Cumulative wall time spent inside job functions, across every
   [map_ordered] call in the process. busy / wall is the achieved
   speedup the bench harness records. *)
let busy_us = Atomic.make 0

let busy_seconds () = float_of_int (Atomic.get busy_us) /. 1e6

(* Nested map_ordered calls (a figure cell whose job runs its seeds through
   an inner jobs:1 pool) must not count the same wall time twice, so only
   the outermost job frame on each domain accumulates. *)
let in_job = Domain.DLS.new_key (fun () -> false)

let timed f x =
  if Domain.DLS.get in_job then f x
  else begin
    Domain.DLS.set in_job true;
    let t0 = Unix.gettimeofday () in
    let finish () =
      Domain.DLS.set in_job false;
      ignore
        (Atomic.fetch_and_add busy_us
           (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
    in
    match f x with
    | r ->
        finish ();
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let map_ordered ~jobs f items =
  let n = List.length items in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map (timed f) items
  else begin
    let arr = Array.of_list items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (let r =
             match timed f arr.(i) with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ())
           in
           results.(i) <- Some r);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is worker number [jobs]. *)
    worker ();
    List.iter Domain.join domains;
    (* Results surface in input order; if any job failed, the
       lowest-indexed failure re-raises (deterministic regardless of which
       domain hit it first). *)
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
  end

let map_ordered_auto f items = map_ordered ~jobs:(jobs_for ~cells:(List.length items)) f items
