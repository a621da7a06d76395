type entry = {
  term : int;
  index : int;
  size : int;
  tag : int;
}

type message =
  | Request_vote of {
      term : int;
      candidate : int;
      last_log_index : int;
      last_log_term : int;
    }
  | Vote of { term : int; from : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      prev_index : int;
      prev_term : int;
      entries : entry list;
      leader_commit : int;
      watermark : int;
      seq : int;
    }
  | Append_reply of {
      term : int;
      from : int;
      success : bool;
      match_index : int;
      hint_index : int;
      seq : int;
    }

let message_bytes = function
  | Request_vote _ -> 48
  | Vote _ -> 32
  | Append_entries { entries; _ } ->
      List.fold_left (fun acc e -> acc + e.size + 24) 48 entries
  | Append_reply _ -> 40
