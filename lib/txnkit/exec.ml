

type plan = {
  participants : int list;
  reads_of : int -> int array;
  writes_of : int -> int array;
}

let plan_of cluster (txn : Txn.t) =
  (* The key sets are fixed for the transaction's lifetime and the record is
     reused across retries, so the partition slicing is memoized on it —
     attempt 2+ pays zero re-splitting cost. *)
  let pc =
    match txn.Txn.plan_cache with
    | Some pc -> pc
    | None ->
        let participants = Cluster.participants cluster txn in
        let slice keys =
          List.map
            (fun p -> (p, Cluster.keys_on_partition cluster ~partition:p keys))
            participants
        in
        let pc =
          {
            Txn.pc_participants = participants;
            pc_reads = slice txn.Txn.read_set;
            pc_writes = slice txn.Txn.write_set;
          }
        in
        txn.Txn.plan_cache <- Some pc;
        pc
  in
  let find slices p = match List.assoc_opt p slices with Some a -> a | None -> [||] in
  {
    participants = pc.Txn.pc_participants;
    reads_of = (fun p -> find pc.Txn.pc_reads p);
    writes_of = (fun p -> find pc.Txn.pc_writes p);
  }

let read kv key =
  let v = Store.Kv.get kv key in
  (key, v.Store.Kv.data, v.Store.Kv.version)

let read_values kv keys = Array.to_list keys |> List.map (read kv)

let assemble_reads (txn : Txn.t) per_partition =
  let table = Hashtbl.create 16 in
  List.iter
    (fun entries -> List.iter (fun (key, data, _) -> Hashtbl.replace table key data) entries)
    per_partition;
  Array.map (fun key -> Option.value ~default:0 (Hashtbl.find_opt table key)) txn.Txn.read_set

let write_pairs (txn : Txn.t) read_values =
  let values = txn.Txn.compute read_values in
  Array.to_list (Array.mapi (fun i key -> (key, values.(i))) txn.Txn.write_set)

let writes_from_replies txn per_partition = write_pairs txn (assemble_reads txn per_partition)

let install recorder kv ~txn pairs =
  List.iter
    (fun (key, data) ->
      Store.Kv.put kv ~key ~data ~writer:txn;
      Check.Recorder.applied recorder ~txn ~key)
    pairs

let pairs_on_partition cluster ~partition pairs =
  List.filter (fun (key, _) -> Cluster.partition_of_key cluster key = partition) pairs

(* ---- partial-abort claim plumbing (shared by every optimistic family) ---- *)

type claims = (int * int * int) list

let claims_of (txn : Txn.t) keys =
  match txn.Txn.pa with
  | None -> []
  | Some pa ->
      Array.to_list keys
      |> List.filter_map (fun key ->
             match Txn.read_index txn key with
             | i when i >= 0 && i < pa.Txn.limit && pa.Txn.have.(i) ->
                 Some (key, pa.Txn.values.(i), pa.Txn.versions.(i))
             | _ -> None)

let claim_extra_bytes claims = 12 * List.length claims

let serve kv keys claims =
  let fresh key =
    match List.find_opt (fun (k, _, _) -> k = key) claims with
    | Some (_, _, version) -> Store.Kv.version kv key <> version
    | None -> true
  in
  Array.to_list keys |> List.filter fresh |> List.map (read kv)

let note_reads (txn : Txn.t) entries =
  if txn.Txn.pa <> None then
    List.iter (fun (key, data, version) -> Txn.pa_note_read txn ~key ~data ~version) entries

let absorb (txn : Txn.t) ~attempt claims served =
  let omitted =
    List.filter (fun (key, _, _) -> not (List.exists (fun (k, _, _) -> k = key) served)) claims
  in
  Txn.pa_note_reused txn ~attempt (List.length omitted);
  let values = served @ omitted in
  note_reads txn values;
  values

let salvage_reads kv (txn : Txn.t) ~reads ~fail_key =
  if txn.Txn.pa = None then []
  else begin
    let bound =
      if fail_key < 0 then 0
      else match Txn.read_index txn fail_key with -1 -> max_int | i -> i
    in
    if bound = 0 then []
    else
      Array.to_list reads
      |> List.filter (fun k -> Txn.read_index txn k < bound)
      |> List.map (read kv)
  end

let salvage_all kv (txn : Txn.t) ~reads =
  if txn.Txn.pa = None then [] else read_values kv reads
