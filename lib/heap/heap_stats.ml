type t = {
  mutable inserts : int;
  mutable extract_mins : int;
  mutable decrease_keys : int;
  mutable deletes : int;
  mutable melds : int;
}

let create () =
  { inserts = 0; extract_mins = 0; decrease_keys = 0; deletes = 0; melds = 0 }

let reset t =
  t.inserts <- 0;
  t.extract_mins <- 0;
  t.decrease_keys <- 0;
  t.deletes <- 0;
  t.melds <- 0

let total t = t.inserts + t.extract_mins + t.decrease_keys + t.deletes + t.melds

let add acc x =
  acc.inserts <- acc.inserts + x.inserts;
  acc.extract_mins <- acc.extract_mins + x.extract_mins;
  acc.decrease_keys <- acc.decrease_keys + x.decrease_keys;
  acc.deletes <- acc.deletes + x.deletes;
  acc.melds <- acc.melds + x.melds

let pp ppf t =
  Format.fprintf ppf "ins=%d ext=%d dec=%d del=%d meld=%d" t.inserts
    t.extract_mins t.decrease_keys t.deletes t.melds
