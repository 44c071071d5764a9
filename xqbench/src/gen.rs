//! Seeded query generators.
//!
//! Every query the benchmark sends comes from here.  The generator draws
//! from the Table VIII / Table IX query shapes and from the grammar
//! productions of the supported fragment (paths over every axis the
//! relational compiler accepts, name and kind tests, predicates, `for` /
//! `let` / `where` / `return`, `if … then … else ()`, general comparisons
//! joined by `and`, and comma sequences under `return`), and varies
//! literals, steps, predicates and the number of join variables (1–3).
//! Sibling axes and `or` are left out: the relational compiler rejects the
//! former by design and the normalizer rejects the latter in every mode, so
//! neither belongs to the fragment the paper isolates.

use std::collections::HashSet;

/// Which document a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The XMark-like auction instance, `auction.xml`.
    Xmark,
    /// The DBLP-like bibliography, `dblp.xml`.
    Dblp,
}

/// One generated query.
#[derive(Debug, Clone)]
pub struct GenQuery {
    /// Query text (a single line, so it fits the line protocol).
    pub text: String,
    /// Template tag: the Table IX shape (`Q1`…`Q6`) or the grammar family.
    pub tag: &'static str,
    /// Target document.
    pub dataset: Dataset,
}

impl GenQuery {
    fn new(text: String, tag: &'static str, dataset: Dataset) -> GenQuery {
        GenQuery { text, tag, dataset }
    }

    /// Does the query return a comma sequence under `return`?  The
    /// relational path concatenates such branches instead of interleaving
    /// them per iteration; the oracle check reports that order difference.
    pub fn sequence_return(&self) -> bool {
        self.text.contains("return (")
    }
}

/// The six Table IX queries, on one line each.
pub const TABLE_IX: [(&str, &str, Dataset); 6] = [
    (
        "Q1",
        r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
        Dataset::Xmark,
    ),
    (
        "Q2",
        r#"let $a := doc("auction.xml") for $ca in $a//closed_auction[price > 500], $i in $a//item, $c in $a//category where $ca/itemref/@item = $i/@id and $i/incategory/@category = $c/@id return $c/name"#,
        Dataset::Xmark,
    ),
    (
        "Q3",
        r#"/site/people/person[@id = "person0"]/name/text()"#,
        Dataset::Xmark,
    ),
    ("Q4", "//closed_auction/price/text()", Dataset::Xmark),
    (
        "Q5",
        r#"/dblp/*[@key = "conf/vldb2001" and editor and title]/title"#,
        Dataset::Dblp,
    ),
    (
        "Q6",
        r#"for $thesis in /dblp/phdthesis[year < "1994" and author and title] return ($thesis/title, $thesis/author, $thesis/year)"#,
        Dataset::Dblp,
    ),
];

/// The Table IX queries as generated queries.
pub fn table_ix() -> Vec<GenQuery> {
    TABLE_IX
        .iter()
        .map(|&(tag, text, ds)| GenQuery::new(text.to_string(), tag, ds))
        .collect()
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len() as u64 - 1) as usize]
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            xs.swap(i, j);
        }
    }
}

/// The generator's two random sources.  Structural choices (production,
/// entity, axis spelling, returned path, round order) come from `shape`,
/// whose seed is fixed per stream kind, so every workload seed sends the
/// same sequence of query skeletons and runs cost the same; literals come
/// from `lit`, seeded by the workload seed, so the texts differ.
#[derive(Debug, Clone)]
pub struct G {
    shape: Rng,
    lit: Rng,
}

impl G {
    /// Sources for workload seed `seed` and skeleton sequence `shape`.
    pub fn new(seed: u64, shape: u64) -> G {
        G {
            shape: Rng::new(shape),
            lit: Rng::new(seed),
        }
    }

    /// A structural choice in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.shape.range(lo, hi)
    }

    /// A structural pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        self.shape.pick(xs)
    }

    /// A literal integer in `lo..=hi`.
    pub fn num(&mut self, lo: u64, hi: u64) -> u64 {
        self.lit.range(lo, hi)
    }

    /// A decimal literal with two fraction digits from the middle fifth of
    /// the value range `lo..hi`: the text changes with the seed while the
    /// selectivity, and with it the execution work, stays comparable.
    fn amount(&mut self, lo: u64, hi: u64) -> String {
        let width = ((hi - lo) / 5).max(1);
        let from = lo + (hi - lo - width) / 2;
        format!(
            "{}.{:02}",
            self.lit.range(from, from + width - 1),
            self.lit.range(0, 99)
        )
    }
}

/// Entity counts of the scale-0.1 documents the ad-hoc stream targets
/// (literals are drawn inside these ranges so most predicates select).
const PERSONS: u64 = 50;
const ITEMS: u64 = 100;
const CATEGORIES: u64 = 25;
const OPEN: u64 = 60;

/// A way to reach an XMark entity from the document root, in the
/// spellings the grammar allows (abbreviated and explicit axes).
fn entity_path(r: &mut G, entity: &str) -> String {
    let full = match entity {
        "open_auction" => "/site/open_auctions/open_auction",
        "closed_auction" => "/site/closed_auctions/closed_auction",
        "person" => "/site/people/person",
        "category" => "/site/categories/category",
        "item" => "/site/regions/*/item",
        "bidder" => "/site/open_auctions/open_auction/bidder",
        _ => unreachable!("unknown entity {entity}"),
    };
    match r.range(0, 3) {
        0 => format!("//{entity}"),
        1 => full.to_string(),
        2 => format!("/descendant::{entity}"),
        _ => format!(r#"doc("auction.xml")/descendant-or-self::node()/child::{entity}"#),
    }
}

/// A predicate on an XMark entity, relative to the entity.
fn entity_pred(r: &mut G, entity: &str) -> String {
    match entity {
        "open_auction" => match r.range(0, 7) {
            0 => "bidder".to_string(),
            1 => format!("initial > {}", r.amount(1, 200)),
            2 => format!("initial < {}", r.amount(1, 200)),
            3 => format!("current >= {}", r.amount(1, 300)),
            4 => format!("bidder/increase > {}", r.amount(1, 30)),
            5 => format!(r#"seller/@person = "person{}""#, r.num(0, PERSONS - 1)),
            6 => format!("bidder and initial <= {}", r.amount(1, 200)),
            _ => format!(r#"@id = "open_auction{}""#, r.num(0, OPEN - 1)),
        },
        "closed_auction" => match r.range(0, 4) {
            0 => format!("price > {}", r.amount(1, 1500)),
            1 => format!("price < {}", r.amount(1, 500)),
            2 => format!(r#"buyer/@person = "person{}""#, r.num(0, PERSONS - 1)),
            3 => format!(r#"date = "{:02}/{:02}/2000""#, r.num(1, 12), r.num(1, 28)),
            _ => format!("itemref and price >= {}", r.amount(1, 800)),
        },
        "item" => match r.range(0, 4) {
            0 => format!(
                r#"incategory/@category = "category{}""#,
                r.num(0, CATEGORIES - 1)
            ),
            1 => format!("quantity > {}", r.num(1, 3)),
            2 => format!(r#"@id = "item{}""#, r.num(0, ITEMS - 1)),
            3 => format!("payment and quantity <= {}", r.num(2, 4)),
            _ => format!(
                r#"location = "United States" and incategory/@category != "category{}""#,
                r.num(0, CATEGORIES - 1)
            ),
        },
        "person" => match r.range(0, 3) {
            0 => format!(r#"@id = "person{}""#, r.num(0, PERSONS - 1)),
            1 => "phone".to_string(),
            2 => format!(
                r#"emailaddress = "mailto:person{}@example.org""#,
                r.num(0, PERSONS - 1)
            ),
            _ => format!(r#"phone and @id != "person{}""#, r.num(0, PERSONS - 1)),
        },
        "category" => match r.range(0, 1) {
            0 => format!(r#"@id = "category{}""#, r.num(0, CATEGORIES - 1)),
            _ => format!(r#"name = "category name {}""#, r.num(0, CATEGORIES - 1)),
        },
        "bidder" => match r.range(0, 2) {
            0 => format!("increase > {}", r.amount(1, 30)),
            1 => format!(r#"personref/@person = "person{}""#, r.num(0, PERSONS - 1)),
            _ => format!("time and increase < {}", r.amount(1, 30)),
        },
        _ => unreachable!("unknown entity {entity}"),
    }
}

/// A relative path returning something from an XMark entity.
fn entity_ret(r: &mut G, entity: &str) -> &'static str {
    let options: &[&'static str] = match entity {
        "open_auction" => &[
            "initial",
            "current/text()",
            "bidder/increase",
            "itemref/@item",
            "seller/@person",
            "@id",
            "bidder/personref/@person",
            "descendant::increase",
        ],
        "closed_auction" => &[
            "price",
            "price/text()",
            "itemref/@item",
            "buyer/@person",
            "date",
            "child::seller/attribute::person",
        ],
        "item" => &[
            "name",
            "name/text()",
            "location",
            "incategory/@category",
            "quantity",
            "@id",
        ],
        "person" => &["name", "name/text()", "emailaddress", "phone", "@id"],
        "category" => &["name", "name/text()", "description/text", "@id"],
        "bidder" => &["increase", "time/text()", "personref/@person"],
        _ => unreachable!("unknown entity {entity}"),
    };
    options[r.range(0, options.len() as u64 - 1) as usize]
}

const ENTITIES: [&str; 6] = [
    "open_auction",
    "closed_auction",
    "item",
    "person",
    "category",
    "bidder",
];

/// Q1 shape: an entity filtered by one predicate (existence or value).
fn q1_shape(r: &mut G) -> String {
    let e = *r.pick(&ENTITIES);
    format!("{}[{}]", entity_path(r, e), entity_pred(r, e))
}

/// Q3 shape: keyed lookup followed by a path to a text or attribute.
fn q3_shape(r: &mut G) -> String {
    match r.range(0, 3) {
        0 => format!(
            r#"/site/people/person[@id = "person{}"]/{}"#,
            r.num(0, PERSONS - 1),
            r.pick(&["name/text()", "emailaddress/text()", "name", "phone"])
        ),
        1 => format!(
            r#"//item[@id = "item{}"]/{}"#,
            r.num(0, ITEMS - 1),
            r.pick(&["name/text()", "location/text()", "incategory/@category"])
        ),
        2 => format!(
            r#"//category[@id = "category{}"]/{}"#,
            r.num(0, CATEGORIES - 1),
            r.pick(&["name/text()", "description/text/text()"])
        ),
        _ => format!(
            r#"//open_auction[@id = "open_auction{}"]/{}"#,
            r.num(0, OPEN - 1),
            r.pick(&["bidder/increase/text()", "initial/text()", "current"])
        ),
    }
}

/// Q4 shape: a path ending in a value step, optionally filtered.
fn q4_shape(r: &mut G) -> String {
    let e = *r.pick(&ENTITIES);
    let ret = entity_ret(r, e);
    if r.range(0, 1) == 0 {
        format!("{}[{}]/{ret}", entity_path(r, e), entity_pred(r, e))
    } else {
        format!(
            "{}[{}][{}]/{ret}",
            entity_path(r, e),
            entity_pred(r, e),
            entity_pred(r, e)
        )
    }
}

/// Reverse and recursive axes: climb from a filtered inner node.
fn axes_shape(r: &mut G) -> String {
    match r.range(0, 4) {
        0 => format!(
            "//bidder[increase > {}]/parent::open_auction/{}",
            r.amount(1, 30),
            entity_ret(r, "open_auction")
        ),
        1 => format!(
            r#"//personref[@person = "person{}"]/ancestor::open_auction/{}"#,
            r.num(0, PERSONS - 1),
            entity_ret(r, "open_auction")
        ),
        2 => format!(
            "//increase[. > {}]/ancestor-or-self::bidder/time",
            r.amount(1, 30)
        ),
        3 => format!(
            r#"//incategory[@category = "category{}"]/parent::*/self::item/name"#,
            r.num(0, CATEGORIES - 1)
        ),
        _ => format!(
            "/site/closed_auctions/closed_auction[price > {}]/descendant::*/attribute::*",
            r.amount(1000, 2000)
        ),
    }
}

/// One-variable FLWOR with optional `where` and `if`.
fn flwor_shape(r: &mut G) -> String {
    let e = *r.pick(&ENTITIES);
    let path = entity_path(r, e);
    let pred = entity_pred(r, e);
    let ret = entity_ret(r, e);
    match r.range(0, 3) {
        0 => format!("for $x in {path}[{pred}] return $x/{ret}"),
        1 => format!("for $x in {path} where $x[{pred}] return $x/{ret}"),
        2 => format!("for $x in {path} return if ($x[{pred}]) then $x/{ret} else ()"),
        _ => format!(r#"let $d := doc("auction.xml") for $x in $d//{e}[{pred}] return $x/{ret}"#),
    }
}

/// Two-level FLWOR over a dependent variable.
fn nested_shape(r: &mut G) -> String {
    match r.range(0, 2) {
        0 => format!(
            "for $a in {}[{}], $b in $a/bidder where $b/increase > {} return $b/{}",
            entity_path(r, "open_auction"),
            entity_pred(r, "open_auction"),
            r.amount(1, 30),
            entity_ret(r, "bidder")
        ),
        1 => format!(
            "for $a in {}, $b in $a/bidder[{}] return $a/{}",
            entity_path(r, "open_auction"),
            entity_pred(r, "bidder"),
            entity_ret(r, "open_auction")
        ),
        _ => format!(
            "for $i in {}[{}] for $c in $i/incategory return $c/@category",
            entity_path(r, "item"),
            entity_pred(r, "item")
        ),
    }
}

/// Comma sequences under `return` (the Q6 shape, on XMark).
fn seq_shape(r: &mut G) -> String {
    let e = *r.pick(&ENTITIES);
    let path = entity_path(r, e);
    let pred = entity_pred(r, e);
    let a = entity_ret(r, e);
    let mut b = entity_ret(r, e);
    while b == a {
        b = entity_ret(r, e);
    }
    if r.range(0, 1) == 0 {
        format!("for $x in {path}[{pred}] return ($x/{a}, $x/{b})")
    } else {
        let mut c = entity_ret(r, e);
        while c == a || c == b {
            c = entity_ret(r, e);
        }
        format!("for $x in {path}[{pred}] return ($x/{a}, $x/{b}, $x/{c})")
    }
}

/// Two-variable value joins over XMark references.
fn join2_shape(r: &mut G) -> String {
    match r.range(0, 3) {
        0 => format!(
            "for $ca in //closed_auction[price > {}], $i in //item where $ca/itemref/@item = $i/@id return $i/{}",
            r.amount(1, 1500),
            entity_ret(r, "item")
        ),
        1 => format!(
            "for $o in //open_auction[initial > {}], $p in //person where $o/seller/@person = $p/@id return $p/{}",
            r.amount(1, 200),
            entity_ret(r, "person")
        ),
        2 => format!(
            "for $b in //bidder[increase > {}], $p in //person where $b/personref/@person = $p/@id return $p/{}",
            r.amount(1, 30),
            entity_ret(r, "person")
        ),
        _ => format!(
            "for $ca in //closed_auction[price < {}], $p in /site/people/person where $ca/buyer/@person = $p/@id return $ca/{}",
            r.amount(1, 500),
            entity_ret(r, "closed_auction")
        ),
    }
}

/// Three-variable value joins: the Q2 shape with varied selections.
fn q2_shape(r: &mut G) -> String {
    match r.range(0, 2) {
        0 => format!(
            r#"let $a := doc("auction.xml") for $ca in $a//closed_auction[price > {}], $i in $a//item, $c in $a//category where $ca/itemref/@item = $i/@id and $i/incategory/@category = $c/@id return $c/{}"#,
            r.amount(1, 1500),
            entity_ret(r, "category")
        ),
        1 => format!(
            "for $o in //open_auction[initial > {}], $i in //item, $p in //person where $o/itemref/@item = $i/@id and $o/seller/@person = $p/@id return $p/{}",
            r.amount(1, 200),
            entity_ret(r, "person")
        ),
        _ => format!(
            "for $ca in //closed_auction[price > {}], $p in //person, $i in //item where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id return $i/{}",
            r.amount(1, 1500),
            entity_ret(r, "item")
        ),
    }
}

const DBLP_KINDS: [&str; 4] = ["article", "inproceedings", "proceedings", "phdthesis"];

fn dblp_pred(r: &mut G, kind: &str) -> String {
    let year = r.num(1988, 1996);
    match (kind, r.range(0, 3)) {
        (_, 0) => format!(r#"year > "{year}""#),
        (_, 1) => format!(r#"year < "{year}" and title"#),
        ("article", _) => format!(r#"journal = "Journal {}""#, r.num(0, 39)),
        ("inproceedings", _) => format!(r#"booktitle = "Conf {}" and author"#, r.num(0, 59)),
        ("proceedings", _) => format!(r#"editor and year = "{}""#, r.num(1980, 2009)),
        _ => format!(r#"school = "University {}""#, r.num(0, 49)),
    }
}

/// Q5 shape: DBLP records selected by key or by conjunctive predicates.
fn q5_shape(r: &mut G) -> String {
    let kind = *r.pick(&DBLP_KINDS);
    match r.range(0, 2) {
        0 => format!(
            r#"/dblp/*[@key = "conf/c{}/{}" and editor and title]/title"#,
            r.num(0, 59),
            r.num(1980, 2009)
        ),
        1 => format!("/dblp/{kind}[{}]/title", dblp_pred(r, kind)),
        _ => format!(
            "/dblp/{kind}[{}]/{}",
            dblp_pred(r, kind),
            r.pick(&["year/text()", "@key", "title/text()"])
        ),
    }
}

/// Q6 shape: DBLP records returned as a comma sequence of children.
fn q6_shape(r: &mut G) -> String {
    let (kind, field, prefix, n) = *r.pick(&[
        ("phdthesis", "school", "University", 50),
        ("article", "journal", "Journal", 40),
        ("inproceedings", "booktitle", "Conf", 60),
    ]);
    let year = r.num(1990, 1998);
    let other = r.num(0, n - 1);
    if r.range(0, 1) == 0 {
        format!(
            r#"for $t in /dblp/{kind}[year < "{year}" and author and {field} != "{prefix} {other}"] return ($t/title, $t/author, $t/year)"#
        )
    } else {
        format!(
            r#"for $t in /dblp/{kind}[year = "{year}" and {field} != "{prefix} {other}"] return ($t/@key, $t/title)"#
        )
    }
}

/// Families of the ad-hoc stream, in round order.  Each round emits one
/// query per family, so every run has the same shape mix whatever the seed.
pub const ADHOC_FAMILIES: [&str; 12] = [
    "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "axes", "flwor", "nested", "seq", "join2", "Q1",
];

/// Generate one query of `family`.
pub fn generate(r: &mut G, family: &'static str) -> GenQuery {
    let (text, ds) = match family {
        "Q1" => (q1_shape(r), Dataset::Xmark),
        "Q2" => (q2_shape(r), Dataset::Xmark),
        "Q3" => (q3_shape(r), Dataset::Xmark),
        "Q4" => (q4_shape(r), Dataset::Xmark),
        "Q5" => (q5_shape(r), Dataset::Dblp),
        "Q6" => (q6_shape(r), Dataset::Dblp),
        "axes" => (axes_shape(r), Dataset::Xmark),
        "flwor" => (flwor_shape(r), Dataset::Xmark),
        "nested" => (nested_shape(r), Dataset::Xmark),
        "seq" => (seq_shape(r), Dataset::Xmark),
        "join2" => (join2_shape(r), Dataset::Xmark),
        _ => unreachable!("unknown family {family}"),
    };
    GenQuery::new(text, family, ds)
}

/// An endless stream of pairwise-distinct queries, one round of
/// [`ADHOC_FAMILIES`] after another (family order shuffled per round).
pub struct AdhocStream {
    g: G,
    seen: HashSet<String>,
    round: Vec<&'static str>,
    lead: Vec<GenQuery>,
}

impl AdhocStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> AdhocStream {
        AdhocStream {
            g: G::new(seed, ADHOC_SHAPES),
            seen: HashSet::new(),
            round: Vec::new(),
            lead: Vec::new(),
        }
    }

    /// Is the stream between two rounds (and past its leading queries)?
    pub fn at_round_boundary(&self) -> bool {
        self.lead.is_empty() && self.round.is_empty()
    }

    /// Emit `queries` first, then the generated stream.
    pub fn lead_with(&mut self, queries: Vec<GenQuery>) {
        self.exclude(queries.iter().map(|q| q.text.clone()));
        self.lead = queries.into_iter().rev().collect();
    }

    /// Mark texts as used so the stream never repeats them (the warm-up
    /// queries, for instance).
    pub fn exclude(&mut self, texts: impl IntoIterator<Item = String>) {
        self.seen.extend(texts);
    }
}

impl Iterator for AdhocStream {
    type Item = GenQuery;

    fn next(&mut self) -> Option<GenQuery> {
        if let Some(q) = self.lead.pop() {
            return Some(q);
        }
        if self.round.is_empty() {
            self.round = ADHOC_FAMILIES.to_vec();
            self.g.shape.shuffle(&mut self.round);
        }
        let family = self.round.pop().expect("round refilled above");
        Some(draw_new(&mut self.g, &mut self.seen, family))
    }
}

/// Skeleton seed of the ad-hoc stream.
const ADHOC_SHAPES: u64 = 0xad0c;

/// Generate a text not in `seen`.  A repeat is redrawn with new literals
/// and the same skeleton, so the skeleton sequence stays the same for
/// every seed; a skeleton that keeps repeating (one without literals)
/// gives way to the next one.
fn draw_new(g: &mut G, seen: &mut HashSet<String>, family: &'static str) -> GenQuery {
    let shape = g.shape.clone();
    let mut attempts = 0;
    loop {
        if attempts < 8 {
            g.shape = shape.clone();
        }
        attempts += 1;
        assert!(attempts < 10_000, "family {family} ran out of new texts");
        let q = generate(g, family);
        if seen.insert(q.text.clone()) {
            return q;
        }
    }
}

/// The fixed pool `repeat-large` cycles through: paths, predicates and
/// FLWORs over both documents, including Q5 and Q6.  Its size is odd, so
/// the median latency of whole cycles falls inside one query's samples
/// rather than on the edge between two queries.
pub fn repeat_pool() -> Vec<GenQuery> {
    let x = Dataset::Xmark;
    let d = Dataset::Dblp;
    [
        ("Q1", "//open_auction[bidder]", x),
        (
            "nested",
            "for $a in //open_auction, $b in $a/bidder return $b/increase",
            x,
        ),
        ("Q4", "//closed_auction/price/text()", x),
        (
            "Q3",
            r#"/site/people/person[@id = "person0"]/name/text()"#,
            x,
        ),
        ("flwor", "for $i in //item[quantity > 3] return $i/name", x),
        (
            "axes",
            "//bidder[increase > 25]/parent::open_auction/@id",
            x,
        ),
        ("Q5", r#"/dblp/article[year > "1990"]/title"#, d),
        ("Q5", TABLE_IX[4].1, d),
        ("Q6", TABLE_IX[5].1, d),
        (
            "Q5",
            r#"/dblp/inproceedings[booktitle = "Conf 7"]/title"#,
            d,
        ),
        (
            "seq",
            r#"for $p in /dblp/proceedings[year = "1995"] return ($p/title, $p/editor)"#,
            d,
        ),
    ]
    .into_iter()
    .map(|(tag, text, ds)| GenQuery::new(text.to_string(), tag, ds))
    .collect()
}

/// Price thresholds of the Q2 literal variants `serve-tight` sends.  The
/// interpreter needs seconds per Q2 variant at scale 0.5, so their oracle
/// results are stored digests (see `digests.txt`).
pub const SERVE_Q2_PRICES: [u32; 6] = [300, 400, 500, 600, 700, 800];

/// The Q2 text with another price threshold.
pub fn q2_variant(price: u32) -> String {
    TABLE_IX[1]
        .1
        .replace("price > 500", &format!("price > {price}"))
}

/// Person ids `person0` .. of the Q3 literal variants `serve-tight` sends.
pub const SERVE_Q3_PERSONS: u64 = 20;

/// Price thresholds of the Q4 literal variants `serve-tight` sends.
pub const SERVE_Q4_PRICES: [u64; 4] = [300, 400, 500, 600];

/// The Q3 text for another person.
pub fn q3_variant(person: u64) -> String {
    TABLE_IX[2].1.replace("person0", &format!("person{person}"))
}

/// The Q4 shape filtered by a price threshold.
pub fn q4_variant(price: u64) -> String {
    format!("//closed_auction[price > {price}]/price/text()")
}

/// Every text `serve-tight` can send more than once: Q1, Q3 and Q4
/// verbatim and all literal variants of Q2, Q3 and Q4.
pub fn serve_recurring() -> Vec<String> {
    let mut texts: Vec<String> = [0, 2, 3]
        .iter()
        .map(|&i| TABLE_IX[i].1.to_string())
        .collect();
    texts.extend(SERVE_Q2_PRICES.iter().map(|&p| q2_variant(p)));
    texts.extend((1..SERVE_Q3_PERSONS).map(q3_variant));
    texts.extend(SERVE_Q4_PRICES.iter().map(|&p| q4_variant(p)));
    texts
}

/// The request mix of one `serve-tight` connection: the Table IX XMark
/// texts verbatim (plan-cache hits after the first), literal variants of
/// them drawn from small sets (some repeat, some miss), and generated
/// XMark shapes (always new).
pub struct ServeStream {
    g: G,
    seen: HashSet<String>,
    round: Vec<u8>,
}

/// Request kinds of one `serve-tight` round (shuffled per round): Q1, Q3
/// and Q4 verbatim (0–2), one Q2 literal variant (3), three Q3 and two Q4
/// literal variants (4–8), and one generated shape each of `axes` and
/// `flwor` (9–10).  Eight of the eleven are cheap keyed lookups and paths,
/// with the four Q3 texts in the middle of the cost order, so the median
/// lands inside them rather than on an edge between two groups of
/// requests.  The generated shapes are the two cheaper families to
/// compile: with `nested` and `join2` as well, cold compilations keep both
/// connection workers busy most of the time, and throughput then follows
/// the speed of both vCPUs of a shared host.
const SERVE_ROUND: [u8; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

impl ServeStream {
    /// The stream of connection `conn` for `seed`.
    pub fn new(seed: u64, conn: u64) -> ServeStream {
        ServeStream {
            g: G::new(seed.wrapping_mul(31).wrapping_add(conn + 1), 0x5e7e + conn),
            seen: HashSet::new(),
            round: Vec::new(),
        }
    }

    /// Is the stream between two rounds?
    pub fn at_round_boundary(&self) -> bool {
        self.round.is_empty()
    }
}

impl Iterator for ServeStream {
    type Item = GenQuery;

    fn next(&mut self) -> Option<GenQuery> {
        if self.round.is_empty() {
            self.round = SERVE_ROUND.to_vec();
            self.g.shape.shuffle(&mut self.round);
        }
        let kind = self.round.pop().expect("round refilled above");
        let r = &mut self.g;
        let x = Dataset::Xmark;
        let q = match kind {
            0..=2 => {
                let (tag, text, ds) = TABLE_IX[[0, 2, 3][kind as usize]];
                GenQuery::new(text.to_string(), tag, ds)
            }
            3 => GenQuery::new(q2_variant(*r.pick(&SERVE_Q2_PRICES)), "Q2", x),
            4..=6 => GenQuery::new(q3_variant(r.num(0, SERVE_Q3_PERSONS - 1)), "Q3", x),
            7 | 8 => GenQuery::new(q4_variant(*r.pick(&SERVE_Q4_PRICES)), "Q4", x),
            _ => {
                // Generated shapes: new texts, so plan-cache misses.
                let family = ["axes", "flwor"][kind as usize - 9];
                draw_new(r, &mut self.seen, family)
            }
        };
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqjg_core::{Mode, Processor};
    use xqjg_data::{generate_dblp_encoded, generate_xmark_encoded, DblpConfig, XmarkConfig};

    fn processors() -> (Processor, Processor) {
        let mut x = Processor::new();
        x.load_encoded(
            "auction.xml",
            generate_xmark_encoded("auction.xml", &XmarkConfig::with_scale(0.05)),
        );
        let mut d = Processor::new();
        d.load_encoded(
            "dblp.xml",
            generate_dblp_encoded("dblp.xml", &DblpConfig::with_scale(0.05)),
        );
        (x, d)
    }

    fn stream(seed: u64, n: usize) -> Vec<GenQuery> {
        AdhocStream::new(seed).take(n).collect()
    }

    #[test]
    fn default_seed_stream_is_accepted_by_the_interpreter() {
        let (mut x, mut d) = processors();
        for q in stream(1, 240) {
            let p = match q.dataset {
                Dataset::Xmark => &mut x,
                Dataset::Dblp => &mut d,
            };
            if let Err(e) = p.execute(&q.text, Mode::Interpreter) {
                panic!("interpreter rejects {}: {e}", q.text);
            }
        }
    }

    #[test]
    fn texts_are_pairwise_distinct_and_single_line() {
        let qs = stream(1, 2000);
        let distinct: HashSet<&str> = qs.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(distinct.len(), qs.len());
        assert!(qs.iter().all(|q| !q.text.contains('\n')));
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<String> = stream(7, 100).into_iter().map(|q| q.text).collect();
        let b: Vec<String> = stream(7, 100).into_iter().map(|q| q.text).collect();
        let c: Vec<String> = stream(8, 100).into_iter().map(|q| q.text).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_family_and_comma_sequences_appear() {
        let qs = stream(1, ADHOC_FAMILIES.len() * 4);
        for family in ADHOC_FAMILIES {
            assert!(
                qs.iter().any(|q| q.tag == family),
                "family {family} missing"
            );
        }
        assert!(qs.iter().any(|q| q.sequence_return()));
        // Every round carries the same shape mix.
        for round in qs.chunks(ADHOC_FAMILIES.len()) {
            let mut tags: Vec<&str> = round.iter().map(|q| q.tag).collect();
            let mut want = ADHOC_FAMILIES.to_vec();
            tags.sort_unstable();
            want.sort_unstable();
            assert_eq!(tags, want);
        }
    }

    #[test]
    fn repeat_pool_and_serve_mix_are_accepted_by_the_interpreter() {
        let (mut x, mut d) = processors();
        let serve: Vec<GenQuery> = ServeStream::new(1, 0).take(60).collect();
        for q in repeat_pool().iter().chain(&serve) {
            if q.tag == "Q2" {
                continue; // Checked against stored digests instead.
            }
            let p = match q.dataset {
                Dataset::Xmark => &mut x,
                Dataset::Dblp => &mut d,
            };
            if let Err(e) = p.execute(&q.text, Mode::Interpreter) {
                panic!("interpreter rejects {}: {e}", q.text);
            }
        }
    }
}
