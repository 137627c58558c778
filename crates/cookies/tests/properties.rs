//! Seeded property tests for cookie parsing and the jar: each property
//! holds for every input drawn from a fixed seed.

use cp_cookies::{
    encode_cookie_header, parse_cookie_header, parse_set_cookie, Cookie, CookieJar, SimDuration,
    SimTime,
};
use cp_runtime::rng::{Rng, SeedableRng, StdRng};

const CASES: usize = 256;

/// `len` characters drawn from `alphabet`.
fn word(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char).collect()
}

/// A cookie name: a letter or `_`, then up to 10 of letters, digits, `_`, `-`.
fn name(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    let rest = rng.gen_range(0..=10usize);
    word(rng, FIRST, 1) + &word(rng, b"abcxyzABCXYZ0123456789_-", rest)
}

/// A cookie value: up to 16 letters, digits, `_`, `.` or `-`.
fn value(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..=16usize);
    word(rng, b"abcxyzABCXYZ0123456789_.-", len)
}

/// Up to 80 characters: mostly ASCII with the header syntax's punctuation,
/// sometimes any code point past the C1 controls.
fn text(rng: &mut StdRng) -> String {
    const ASCII: &[u8] = b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCXYZ[\\]^_`abcxyz{|}~";
    (0..rng.gen_range(0..=80usize))
        .map(|_| match rng.gen_range(0..4u32) {
            0 => char::from_u32(rng.gen_range(0xa0..0x11_0000u32)).unwrap_or('\u{fffd}'),
            _ => ASCII[rng.gen_range(0..ASCII.len())] as char,
        })
        .collect()
}

/// A cookie for one of three related domains and paths, created in the
/// first 1,000 s, with no expiry or one within 10,000 s of creation.
fn cookie(rng: &mut StdRng) -> Cookie {
    let created = SimTime::from_secs(rng.gen_range(0..1_000u64));
    let domain = ["a.com", "b.com", "www.a.com"][rng.gen_range(0..3usize)];
    let path = ["/", "/x", "/x/y"][rng.gen_range(0..3usize)];
    let c = Cookie::new(name(rng), value(rng), domain, created).with_path(path);
    if rng.gen_bool(0.5) {
        c.with_expiry(created + SimDuration::from_secs(rng.gen_range(0..10_000u64)))
    } else {
        c
    }
}

fn jar(rng: &mut StdRng, max: usize, now: SimTime) -> CookieJar {
    let mut jar = CookieJar::new();
    for _ in 0..rng.gen_range(0..max) {
        jar.store(cookie(rng), now);
    }
    jar
}

#[test]
fn header_parsers_never_panic() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let header = text(&mut rng);
        let _ = parse_set_cookie(&header, "host.example", SimTime::EPOCH);
        let _ = parse_cookie_header(&header);
    }
}

#[test]
fn name_and_value_round_trip_through_both_headers() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let (name, value) = (name(&mut rng), value(&mut rng));
        let c = parse_set_cookie(&format!("{name}={value}"), "h.example", SimTime::EPOCH)
            .expect("a plain pair parses");
        assert_eq!((&c.name, &c.value), (&name, &value));
        assert_eq!(parse_cookie_header(&encode_cookie_header([&c])), vec![(name, value)]);
    }
}

#[test]
fn jar_sends_only_matching_live_cookies_longest_path_first() {
    let mut rng = StdRng::seed_from_u64(3);
    let now = SimTime::from_secs(500);
    for _ in 0..CASES {
        let jar = jar(&mut rng, 20, now);
        for host in ["a.com", "b.com", "www.a.com"] {
            for path in ["/", "/x", "/x/y/z"] {
                let sent = jar.cookies_for(host, path, now);
                for c in &sent {
                    assert!(c.matches_request(host, path, now) && !c.is_expired(now));
                }
                assert!(sent.windows(2).all(|w| w[0].path.len() >= w[1].path.len()));
            }
        }
    }
}

#[test]
fn jar_holds_one_cookie_per_identity() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let jar = jar(&mut rng, 30, SimTime::EPOCH);
        let mut identities: Vec<_> = jar.iter().map(|c| (&c.name, &c.domain, &c.path)).collect();
        let stored = identities.len();
        identities.sort();
        identities.dedup();
        assert_eq!(identities.len(), stored);
    }
}

#[test]
fn purge_removes_exactly_the_expired() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let mut jar = jar(&mut rng, 20, SimTime::EPOCH);
        let now = SimTime::from_secs(rng.gen_range(0..20_000u64));
        let live = jar.iter().filter(|c| !c.is_expired(now)).count();
        jar.purge_expired(now);
        assert_eq!(jar.len(), live);
    }
}

#[test]
fn reissuing_a_cookie_keeps_its_useful_mark() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let c = cookie(&mut rng);
        let (now, domain, name) = (c.created, c.domain.clone(), c.name.clone());
        let mut jar = CookieJar::new();
        jar.store(c.clone(), now);
        jar.mark_useful(&domain, &[name.as_str()]);
        jar.store(c, now);
        assert!(jar.iter().filter(|k| k.name == name).all(|k| k.useful()));
    }
}
