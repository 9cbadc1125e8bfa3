(* Transaction identifiers <c, m, t, l> (§5.3): the configuration in which
   the commit started, the coordinator machine, the coordinator thread, and
   a thread-local sequence number. *)

type t = { config : int; machine : int; thread : int; local : int }

let make ~config ~machine ~thread ~local = { config; machine; thread; local }

let compare a b =
  let c = Int.compare a.config b.config in
  if c <> 0 then c
  else
    let c = Int.compare a.machine b.machine in
    if c <> 0 then c
    else
      let c = Int.compare a.thread b.thread in
      if c <> 0 then c else Int.compare a.local b.local

let equal a b = compare a b = 0

(* Hashes the record in place. It has the block layout of the tuple
   [(config, machine, thread, local)] (tag 0, four immediate fields), so
   the value equals that tuple's hash without allocating it; table bucket
   order, and so every [Tbl] iteration order, depends on this. *)
let hash (t : t) = Hashtbl.hash t

let pp ppf t = Fmt.pf ppf "<c%d,m%d,t%d,l%d>" t.config t.machine t.thread t.local

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
