(* Keys, sequence numbers and values live in three parallel arrays, so a
   push or pop allocates nothing once the arrays have grown. Sifts move a
   hole instead of swapping, so each level costs one write per array. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable filler : 'a option;
}

let create ?dummy () = { keys = [||]; seqs = [||]; values = [||]; size = 0; filler = dummy }

let length t = t.size
let is_empty t = t.size = 0

let grow t v =
  let cap = Array.length t.keys in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let filler =
    match t.filler with
    | Some f -> f
    | None ->
        t.filler <- Some v;
        v
  in
  let keys = Array.make new_cap 0 and seqs = Array.make new_cap 0 in
  let values = Array.make new_cap filler in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.values <- values

let push t ~key ~seq value =
  if t.size = Array.length t.keys then grow t value;
  let keys = t.keys and seqs = t.seqs and values = t.values in
  (* sift the hole at the new leaf up past every parent ordered after us *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = keys.(p) in
    if key < pk || (key = pk && seq < seqs.(p)) then begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(p);
      values.(!i) <- values.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  values.(!i) <- value;
  t.size <- t.size + 1

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let keys = t.keys and seqs = t.seqs and values = t.values in
  let top = values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the hole at the root down, then drop the last entry into it *)
    let key = keys.(n) and seq = seqs.(n) and value = values.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ck = keys.(c) in
        if ck < key || (ck = key && seqs.(c) < seq) then begin
          keys.(!i) <- ck;
          seqs.(!i) <- seqs.(c);
          values.(!i) <- values.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    values.(!i) <- value
  end;
  (* the vacated slot must not keep the popped value (or the entry moved
     out of it) reachable *)
  (match t.filler with Some f -> values.(n) <- f | None -> ());
  top

let pop t =
  if t.size = 0 then None
  else
    let key = t.keys.(0) in
    Some (key, pop_min t)
