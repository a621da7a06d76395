open Simcore

type role = Follower | Candidate | Leader

(* WAN-appropriate timers: election timeouts are uniform in
   [[election_timeout, 2 * election_timeout]]. *)
let election_timeout = Sim_time.ms 1500.
let heartbeat_interval = Sim_time.ms 150.

type t = {
  id : int;
  peers : int array;
  engine : Engine.t;
  rng : Rng.t;
  mutable send : dst:int -> Types.message -> unit;
  mutable term : int;
  mutable voted_for : int option;
  mutable role : role;
  log : Types.entry Vec.t;  (** entries [base + 1 .. last_log_index] *)
  mutable base : int;
      (** highest compacted index: every member holds the log up to here,
          so the entries are dropped and only their count and the last
          one's term are kept *)
  mutable base_term : int;
  mutable commit_index : int;
  next_index : (int, int) Hashtbl.t;
  match_index : (int, int) Hashtbl.t;
  callbacks : (int, unit -> unit) Hashtbl.t;
  mutable votes_granted : int list;
  mutable election_timer : Engine.handle option;
  mutable heartbeat_timer : Engine.handle option;
  mutable stopped : bool;
  mutable leader_hint : int option;
  mutable fired_up_to : int;  (** highest index whose commit callback ran *)
  mutable group_commit : bool;
      (** leader coalesces log entries into one AppendEntries per
          replication round (one in flight per peer); off by default *)
  inflight : (int, unit) Hashtbl.t;
      (** group-commit mode: peers with an unacknowledged AppendEntries *)
  mutable seq : int;  (** AppendEntries sent by this node so far *)
  unanswered : (int, int Vec.t) Hashtbl.t;
      (** leader: per peer, flat (seq, prev_index) pairs, oldest first, of
          appends sent this term whose reply may still arrive; consecutive
          appends with the same prev_index share one pair holding the
          latest seq. Connections are FIFO, so a reply to [seq] settles
          every earlier append to that peer: answered or lost. *)
}

let create ~engine ~rng ~id ~peers =
  {
    id;
    peers;
    engine;
    rng;
    send = (fun ~dst:_ _ -> invalid_arg "Raft.Node: transport not set");
    term = 0;
    voted_for = None;
    role = Follower;
    log = Vec.create ();
    base = 0;
    base_term = 0;
    commit_index = 0;
    next_index = Hashtbl.create 7;
    match_index = Hashtbl.create 7;
    callbacks = Hashtbl.create 64;
    votes_granted = [];
    election_timer = None;
    heartbeat_timer = None;
    stopped = false;
    leader_hint = None;
    fired_up_to = 0;
    group_commit = false;
    inflight = Hashtbl.create 7;
    seq = 0;
    unanswered = Hashtbl.create 7;
  }

let set_transport t send = t.send <- send
let set_group_commit t on = t.group_commit <- on

(* Caps one AppendEntries in group-commit mode so a long backlog ships as a
   few bounded envelopes rather than one unbounded message. *)
let group_commit_max_entries = 256

let majority t = (Array.length t.peers / 2) + 1
let last_log_index t = t.base + Vec.length t.log
let entry t i = Vec.get t.log (i - t.base - 1)

let entry_term t i =
  if i > t.base then (entry t i).Types.term
  else if i = t.base then t.base_term
  else invalid_arg "Raft.Node.entry_term: compacted index"

(* Drops the log prefix up to [upto], capped at the commit index. Callers
   pass a watermark every member already holds, which no conflict can
   truncate and, at the leader, no append will resend. *)
let compact t upto =
  let upto = Stdlib.min upto t.commit_index in
  if upto > t.base then begin
    t.base_term <- entry_term t upto;
    Vec.drop_front t.log (upto - t.base);
    t.base <- upto
  end

let cancel_timer = function Some h -> Engine.cancel h | None -> ()

let broadcast t msg =
  Array.iter (fun peer -> if peer <> t.id then t.send ~dst:peer msg) t.peers

(* --- timers --- *)

let rec reset_election_timer t =
  cancel_timer t.election_timer;
  let base = Sim_time.to_us election_timeout in
  let delay = Sim_time.us (base + Rng.int t.rng base) in
  t.election_timer <- Some (Engine.schedule_after t.engine delay (fun () -> on_election_timeout t))

and on_election_timeout t =
  if not t.stopped then begin
    match t.role with
    | Leader -> ()
    | Follower | Candidate -> become_candidate t
  end

and become_candidate t =
  t.term <- t.term + 1;
  t.role <- Candidate;
  t.voted_for <- Some t.id;
  t.votes_granted <- [ t.id ];
  t.leader_hint <- None;
  reset_election_timer t;
  broadcast t
    (Types.Request_vote
       {
         term = t.term;
         candidate = t.id;
         last_log_index = last_log_index t;
         last_log_term = entry_term t (last_log_index t);
       });
  if majority t = 1 then become_leader t

and become_leader t =
  t.role <- Leader;
  t.leader_hint <- Some t.id;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.unanswered;
  cancel_timer t.election_timer;
  t.election_timer <- None;
  Array.iter
    (fun peer ->
      Hashtbl.replace t.next_index peer (last_log_index t + 1);
      Hashtbl.replace t.match_index peer (if peer = t.id then last_log_index t else 0))
    t.peers;
  send_heartbeats t;
  arm_heartbeat t

and arm_heartbeat t =
  cancel_timer t.heartbeat_timer;
  t.heartbeat_timer <-
    Some
      (Engine.schedule_after t.engine heartbeat_interval (fun () ->
           if (not t.stopped) && t.role = Leader then begin
             send_heartbeats t;
             arm_heartbeat t
           end))

and send_heartbeats t =
  (* Group commit treats the heartbeat as its retransmission timer: any
     append still unacknowledged after a full heartbeat interval is
     presumed lost, so the in-flight marks are dropped and the heartbeat
     itself (which carries the pending suffix) resends the batch. *)
  if t.group_commit then Hashtbl.reset t.inflight;
  Array.iter (fun peer -> if peer <> t.id then send_append t peer) t.peers

and send_append t peer =
  let next = try Hashtbl.find t.next_index peer with Not_found -> last_log_index t + 1 in
  let prev_index = next - 1 in
  let limit = if t.group_commit then next + group_commit_max_entries - 1 else max_int in
  let entries =
    let rec collect i acc =
      if i > last_log_index t || i > limit then List.rev acc
      else collect (i + 1) (entry t i :: acc)
    in
    collect next []
  in
  t.seq <- t.seq + 1;
  let pending =
    match Hashtbl.find_opt t.unanswered peer with
    | Some v -> v
    | None ->
        let v = Vec.create () in
        Hashtbl.replace t.unanswered peer v;
        v
  in
  let n = Vec.length pending in
  if n > 0 && Vec.get pending (n - 1) = prev_index then Vec.set pending (n - 2) t.seq
  else begin
    Vec.push pending t.seq;
    Vec.push pending prev_index
  end;
  t.send ~dst:peer
    (Types.Append_entries
       {
         term = t.term;
         leader = t.id;
         prev_index;
         prev_term = entry_term t prev_index;
         entries;
         leader_commit = t.commit_index;
         watermark = t.base;
         seq = t.seq;
       });
  (* Pipelining (as in etcd/raft): advance next_index optimistically so the
     suffix is not resent on every subsequent append; a failure reply resets
     it via the hint. *)
  if entries <> [] then Hashtbl.replace t.next_index peer (next + List.length entries);
  if t.group_commit then Hashtbl.replace t.inflight peer ()

(* --- state transitions --- *)

let become_follower t ~term =
  let was_leader = t.role = Leader in
  t.term <- term;
  t.role <- Follower;
  t.voted_for <- None;
  t.votes_granted <- [];
  Hashtbl.reset t.inflight;
  if was_leader then begin
    cancel_timer t.heartbeat_timer;
    t.heartbeat_timer <- None
  end;
  reset_election_timer t

let fire_committed_callbacks t =
  let rec fire i =
    if i <= t.commit_index then begin
      (match Hashtbl.find_opt t.callbacks i with
      | Some cb ->
          Hashtbl.remove t.callbacks i;
          cb ()
      | None -> ());
      t.fired_up_to <- i;
      fire (i + 1)
    end
  in
  fire (t.fired_up_to + 1)

(* The leader's compaction watermark: the lowest match index over all
   members, crashed ones included, so a lagging peer keeps what it lacks —
   and no higher than any peer's next index, or the prev index of any
   append whose reply may still arrive, so every append the leader will
   send starts above it: a stale reply (under group commit a capped resend
   can cover a lower range than an append acknowledged before it) moves a
   next index back, but never below the prev index it was sent with. *)
let held_by_all t =
  let last = last_log_index t in
  Array.fold_left
    (fun acc peer ->
      let acc = Stdlib.min acc (try Hashtbl.find t.match_index peer with Not_found -> 0) in
      if peer = t.id then acc
      else
        let next = try Hashtbl.find t.next_index peer with Not_found -> last + 1 in
        let acc = ref (Stdlib.min acc (next - 1)) in
        (match Hashtbl.find_opt t.unanswered peer with
        | Some pending ->
            for i = 0 to (Vec.length pending / 2) - 1 do
              acc := Stdlib.min !acc (Vec.get pending ((2 * i) + 1))
            done
        | None -> ());
        !acc)
    max_int t.peers

let advance_commit t =
  let n = last_log_index t in
  let best = ref t.commit_index in
  for candidate = t.commit_index + 1 to n do
    if entry_term t candidate = t.term then begin
      let acks =
        Array.fold_left
          (fun acc peer ->
            let m = try Hashtbl.find t.match_index peer with Not_found -> 0 in
            if m >= candidate then acc + 1 else acc)
          0 t.peers
      in
      if acks >= majority t then best := candidate
    end
  done;
  if !best > t.commit_index then begin
    t.commit_index <- !best;
    fire_committed_callbacks t
  end;
  compact t (held_by_all t)

(* --- message handling --- *)

let handle_request_vote t ~term ~candidate ~last_log_index:cand_last_index
    ~last_log_term:cand_last_term =
  if term > t.term then become_follower t ~term;
  let up_to_date =
    let my_last = last_log_index t in
    let my_term = entry_term t my_last in
    cand_last_term > my_term || (cand_last_term = my_term && cand_last_index >= my_last)
  in
  let granted =
    term = t.term && up_to_date
    && (match t.voted_for with None -> true | Some v -> v = candidate)
    && t.role = Follower
  in
  if granted then begin
    t.voted_for <- Some candidate;
    reset_election_timer t
  end;
  t.send ~dst:candidate (Types.Vote { term = t.term; from = t.id; granted })

let handle_vote t ~term ~from ~granted =
  if term > t.term then become_follower t ~term
  else if t.role = Candidate && term = t.term && granted then begin
    if not (List.mem from t.votes_granted) then t.votes_granted <- from :: t.votes_granted;
    if List.length t.votes_granted >= majority t then become_leader t
  end

let handle_append_entries t ~term ~leader ~prev_index ~prev_term ~entries ~leader_commit
    ~watermark ~seq =
  if term > t.term || (term = t.term && t.role = Candidate) then become_follower t ~term;
  if term < t.term then
    t.send ~dst:leader
      (Types.Append_reply
         { term = t.term; from = t.id; success = false; match_index = 0; hint_index = 0; seq })
  else begin
    t.leader_hint <- Some leader;
    reset_election_timer t;
    (* The compacted prefix is held by every member, so it matches. *)
    let log_ok =
      prev_index <= t.base
      || (prev_index <= last_log_index t && entry_term t prev_index = prev_term)
    in
    if not log_ok then begin
      let hint = Stdlib.min prev_index (last_log_index t + 1) in
      t.send ~dst:leader
        (Types.Append_reply
           {
             term = t.term;
             from = t.id;
             success = false;
             match_index = 0;
             hint_index = Stdlib.max 1 hint;
             seq;
           })
    end
    else begin
      List.iter
        (fun (e : Types.entry) ->
          if e.index <= t.base then ()
          else if e.index <= last_log_index t then begin
            if entry_term t e.index <> e.term then begin
              (* Conflict: truncate our log from this point and append. *)
              Vec.truncate t.log (e.index - t.base - 1);
              Vec.push t.log e
            end
          end
          else begin
            assert (e.index = last_log_index t + 1);
            Vec.push t.log e
          end)
        entries;
      let match_index = prev_index + List.length entries in
      if leader_commit > t.commit_index then begin
        t.commit_index <- Stdlib.min leader_commit (last_log_index t);
        fire_committed_callbacks t
      end;
      compact t watermark;
      t.send ~dst:leader
        (Types.Append_reply
           { term = t.term; from = t.id; success = true; match_index; hint_index = 0; seq })
    end
  end

let handle_append_reply t ~term ~from ~success ~match_index ~hint_index ~seq =
  if term > t.term then become_follower t ~term
  else if t.role = Leader && term = t.term then begin
    (match Hashtbl.find_opt t.unanswered from with
    | Some pending ->
        let rec settled i =
          if i < Vec.length pending && Vec.get pending i <= seq then settled (i + 2) else i
        in
        Vec.drop_front pending (settled 0)
    | None -> ());
    if success then begin
      let prev = try Hashtbl.find t.match_index from with Not_found -> 0 in
      if match_index > prev then Hashtbl.replace t.match_index from match_index;
      Hashtbl.replace t.next_index from (Stdlib.max (match_index + 1) 1);
      if t.group_commit then begin
        (* The acked round is done; everything that accumulated while it
           was in flight ships as the next round's single batch. *)
        Hashtbl.remove t.inflight from;
        let next =
          try Hashtbl.find t.next_index from with Not_found -> last_log_index t + 1
        in
        if next <= last_log_index t then send_append t from
      end;
      advance_commit t
    end
    else begin
      Hashtbl.replace t.next_index from (Stdlib.max 1 hint_index);
      if t.group_commit then Hashtbl.remove t.inflight from;
      send_append t from
    end
  end

let receive t msg =
  if not t.stopped then
    match msg with
    | Types.Request_vote { term; candidate; last_log_index; last_log_term } ->
        handle_request_vote t ~term ~candidate ~last_log_index ~last_log_term
    | Types.Vote { term; from; granted } -> handle_vote t ~term ~from ~granted
    | Types.Append_entries
        { term; leader; prev_index; prev_term; entries; leader_commit; watermark; seq } ->
        handle_append_entries t ~term ~leader ~prev_index ~prev_term ~entries ~leader_commit
          ~watermark ~seq
    | Types.Append_reply { term; from; success; match_index; hint_index; seq } ->
        handle_append_reply t ~term ~from ~success ~match_index ~hint_index ~seq

(* --- public API --- *)

let start t = reset_election_timer t

let force_leader t =
  t.term <- 1;
  become_leader t

let replicate t ~size ~tag ~on_committed =
  if t.role <> Leader then invalid_arg "Raft.Node.replicate: not the leader";
  let index = last_log_index t + 1 in
  Vec.push t.log { Types.term = t.term; index; size; tag };
  Hashtbl.replace t.callbacks index on_committed;
  Hashtbl.replace t.match_index t.id index;
  (* Group commit keeps one AppendEntries in flight per peer; entries
     arriving while a round is outstanding accumulate and ride the next
     round together, so the per-entry replication cost is amortized and the
     batch grows exactly as fast as the network round trip allows. *)
  Array.iter
    (fun peer ->
      if peer <> t.id && not (t.group_commit && Hashtbl.mem t.inflight peer) then
        send_append t peer)
    t.peers;
  (* Single-node groups commit immediately. *)
  advance_commit t;
  index

let crash t =
  t.stopped <- true;
  cancel_timer t.election_timer;
  cancel_timer t.heartbeat_timer;
  t.election_timer <- None;
  t.heartbeat_timer <- None

let restart t =
  t.stopped <- false;
  t.role <- Follower;
  t.votes_granted <- [];
  t.leader_hint <- None;
  Hashtbl.reset t.inflight;
  reset_election_timer t

let id t = t.id
let role t = t.role
let term t = t.term
let commit_index t = t.commit_index
let log_length t = last_log_index t
let log_base t = t.base
let log_entries t = Vec.to_list t.log
let leader_hint t = t.leader_hint
let is_stopped t = t.stopped
