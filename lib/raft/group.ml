type t = {
  nodes : (int * Node.t) list;  (** network node id -> raft node *)
  member_ids : int array;
  engine : Simcore.Engine.t;
  trace : Trace.t;  (** the network's sink, for "replication" lifecycle spans *)
}

let node t id =
  try List.assoc id t.nodes with Not_found -> invalid_arg "Raft.Group.node: not a member"

(* Raft traffic rides the same typed RPC layer as the transaction
   protocols, so traces attribute replication load per kind. *)
let envelope_of msg =
  let kind =
    match msg with
    | Types.Request_vote _ -> Rpc.Msg.Raft_request_vote
    | Types.Vote _ -> Rpc.Msg.Raft_vote
    | Types.Append_entries _ -> Rpc.Msg.Raft_append
    | Types.Append_reply _ -> Rpc.Msg.Raft_append_reply
  in
  Rpc.Msg.make kind ~bytes:(Types.message_bytes msg)

let create ~engine ~net ~rng ?(group_commit = false) ~members ?initial_leader () =
  let nodes =
    Array.to_list
      (Array.map
         (fun id ->
           let n = Node.create ~engine ~rng:(Simcore.Rng.split rng) ~id ~peers:members in
           Node.set_group_commit n group_commit;
           (id, n))
         members)
  in
  let t = { nodes; member_ids = members; engine; trace = Netsim.Network.trace net } in
  List.iter
    (fun (id, n) ->
      Node.set_transport n (fun ~dst msg ->
          Rpc.send net ~src:id ~dst ~msg:(envelope_of msg) (fun () ->
              Node.receive (node t dst) msg)))
    nodes;
  (match initial_leader with
  | Some leader ->
      List.iter (fun (id, n) -> if id <> leader then Node.start n) nodes;
      Node.force_leader (node t leader)
  | None -> List.iter (fun (_, n) -> Node.start n) nodes);
  t

let members t = t.member_ids

let leader_id t =
  List.find_map (fun (id, n) -> if Node.role n = Leader && not (Node.is_stopped n) then Some id else None) t.nodes

let replicate t ?(background = false) ~size ?(tag = 0) ~on_committed () =
  (* A tagged, non-background replication sits on some transaction's commit
     critical path; bracket it with a "replication" span so the latency
     attribution engine can charge the wait to the right transaction. *)
  let on_committed =
    if background || tag = 0 || not (Trace.recording t.trace) then on_committed
    else begin
      Trace.span_begin t.trace ~txn:tag ~name:"replication"
        ~at:(Simcore.Engine.now t.engine);
      fun () ->
        (* Blame identity for replication waits: the group's leader node (re-
           queried at commit time, when it is settled even across failover).
           No blocker txn — replication delay is a resource, not a conflict. *)
        let blame =
          { Trace.no_blame with bl_node = Option.value (leader_id t) ~default:(-1) }
        in
        Trace.span_end t.trace ~txn:tag ~name:"replication"
          ~at:(Simcore.Engine.now t.engine) ~blame;
        on_committed ()
    end
  in
  (* Leaderless windows (mid-election) buffer the request and retry, as a
     client library would; after ~30 s of no leader the entry is dropped
     (the group is considered failed). *)
  let rec attempt tries =
    match leader_id t with
    | Some id -> ignore (Node.replicate (node t id) ~size ~tag ~on_committed)
    | None ->
        if tries < 150 then
          ignore
            (Simcore.Engine.schedule_after t.engine (Simcore.Sim_time.ms 200.) (fun () ->
                 attempt (tries + 1)))
  in
  attempt 0

let commit_index t =
  List.fold_left
    (fun acc (_, n) -> if Node.is_stopped n then acc else max acc (Node.commit_index n))
    0 t.nodes

let replication_lag t =
  let live = List.filter (fun (_, n) -> not (Node.is_stopped n)) t.nodes in
  match live with
  | [] -> 0
  | _ ->
      let head =
        List.fold_left (fun acc (_, n) -> max acc (Node.log_length n)) 0 live
      in
      List.fold_left (fun acc (_, n) -> acc + (head - Node.commit_index n)) 0 live

let crash t id = Node.crash (node t id)
let restart t id = Node.restart (node t id)

(* Entries at or below any member's base are held by every member, so the
   logs agree once they match above the highest base among them. *)
let converged t =
  let live = List.filter (fun (_, n) -> not (Node.is_stopped n)) t.nodes in
  match live with
  | [] -> true
  | (_, first) :: rest ->
      let base = List.fold_left (fun acc (_, n) -> max acc (Node.log_base n)) 0 live in
      let above n =
        List.filter (fun (e : Types.entry) -> e.index > base) (Node.log_entries n)
      in
      let reference = above first in
      let length = Node.log_length first and commit = Node.commit_index first in
      List.for_all
        (fun (_, n) ->
          Node.log_length n = length && Node.commit_index n = commit && above n = reference)
        rest
