type 'a t = {
  mutable data : 'a array;
  mutable size : int;
}

let create () = { data = [||]; size = 0 }
let length t = t.size

let grow t =
  let cap = Stdlib.max 8 (2 * Array.length t.data) in
  let data = Array.make cap t.data.(0) in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = 0 && Array.length t.data = 0 then begin
    t.data <- Array.make 8 x;
    t.size <- 1
  end
  else begin
    if t.size = Array.length t.data then grow t;
    t.data.(t.size) <- x;
    t.size <- t.size + 1
  end

let check t i =
  if i < 0 || i >= t.size then invalid_arg (Printf.sprintf "Vec: index %d out of [0,%d)" i t.size)

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let truncate t n =
  if n < 0 || n > t.size then invalid_arg "Vec.truncate";
  t.size <- n

let drop_front t n =
  if n < 0 || n > t.size then invalid_arg "Vec.drop_front";
  if n > 0 then begin
    let size = t.size - n in
    let cap = Array.length t.data in
    if cap > 8 && 4 * size <= cap then begin
      let data = Array.make (Stdlib.max 8 (2 * size)) t.data.(n - 1) in
      Array.blit t.data n data 0 size;
      t.data <- data
    end
    else begin
      Array.blit t.data n t.data 0 size;
      (* Overwrite the vacated tail so the array keeps no dropped element
         alive, bar one when the vector is now empty. *)
      Array.fill t.data size n t.data.(0)
    end;
    t.size <- size
  end

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let to_list t = List.init t.size (fun i -> t.data.(i))

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let clear t = t.size <- 0

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.init t.size (fun i -> t.data.(i))
