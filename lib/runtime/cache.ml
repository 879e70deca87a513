(* LRU cache: hash table for lookup, doubly-linked list for recency
   (head = most recent, tail = eviction candidate), and a ring of the
   hashes of the last [cap] keys a [~recurring] put declined. All
   operations are mutex-protected so pool workers in different domains
   can share one cache. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* toward head / more recent *)
  mutable next : 'v node option;  (* toward tail / less recent *)
}

type 'v t = {
  cap : int;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hit_count : int;
  mutable miss_count : int;
  declined : int array;  (* key hashes, -1 when empty; a ring *)
  mutable next_declined : int;
  lock : Mutex.t;
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    cap = capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hit_count = 0;
    miss_count = 0;
    declined = Array.make capacity (-1);
    next_declined = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        t.hit_count <- t.hit_count + 1;
        unlink t node;
        push_front t node;
        Some node.value
      | None ->
        t.miss_count <- t.miss_count + 1;
        None)

(* whether the ring holds [h]; if not, [h] replaces its oldest hash *)
let declined_before t h =
  if Array.exists (Int.equal h) t.declined then true
  else begin
    t.declined.(t.next_declined) <- h;
    t.next_declined <- (t.next_declined + 1) mod t.cap;
    false
  end

let put ?(recurring = false) t key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
      | None when recurring && not (declined_before t (Hashtbl.hash key)) -> ()
      | None ->
        if Hashtbl.length t.table >= t.cap then (
          match t.tail with
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key
          | None -> ());
        let node = { key; value; prev = None; next = None } in
        Hashtbl.add t.table key node;
        push_front t node)

let capacity t = t.cap
let length t = locked t (fun () -> Hashtbl.length t.table)
let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)

let keys_by_recency t =
  locked t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some node -> go (node.key :: acc) node.next
      in
      go [] t.head)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Array.fill t.declined 0 t.cap (-1);
      t.head <- None;
      t.tail <- None)
