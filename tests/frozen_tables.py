"""Frozen values shared by the tests, apart from the paper's worked examples.

The worked examples (the square's and the grid's components and witnesses,
the grid's local equations and tangent reduction, the hook-product
identities and the F_p counts) have one record: the bundled corpus
``rpphilb/data/verify_corpus.json``, which ``rpphilb verify`` replays and
the tests read through ``conftest.corpus_row``.  This module holds the
rest: the texts of the worked fillings, the canonical indicator order on
the square and the grid (which the corpus does not hold), and SHA-256
digests of answers too large to write out, each recorded by the script
named beside it.
"""

# The worked fillings: the square, the grid and the vertical domino.
SQUARE_TEXT = "0 2 / 2 4"
GRID_TEXT = "0 0 3 / 0 2 5 / 3 5 5"
DOMINO_TEXT = "1 / 2"

# The even grid: its type I reduction keeps 16 generators.
EVEN_GRID_TEXT = "0 2 4 / 2 4 6 / 4 6 8"
# The step-3 grid: the largest reduction pinned here (type I prints 297 kB).
TRIPLE_GRID_TEXT = "0 3 6 / 3 6 9 / 6 9 12"

# Canonical indicator order for the 2x2 square: descending lexicographic on
# the row-major 0/1 vectors.
SQUARE_INDICATORS = [
    "1 1 / 1 1",
    "0 1 / 1 1",
    "0 1 / 0 1",
    "0 0 / 1 1",
    "0 0 / 0 1",
]

GRID_INDICATORS = [
    "1 1 1 / 1 1 1 / 1 1 1",
    "0 1 1 / 1 1 1 / 1 1 1",
    "0 1 1 / 0 1 1 / 1 1 1",
    "0 1 1 / 0 1 1 / 0 1 1",
    "0 0 1 / 1 1 1 / 1 1 1",
    "0 0 1 / 0 1 1 / 1 1 1",
    "0 0 1 / 0 1 1 / 0 1 1",
    "0 0 1 / 0 0 1 / 1 1 1",
    "0 0 1 / 0 0 1 / 0 1 1",
    "0 0 1 / 0 0 1 / 0 0 1",
    "0 0 0 / 1 1 1 / 1 1 1",
    "0 0 0 / 0 1 1 / 1 1 1",
    "0 0 0 / 0 1 1 / 0 1 1",
    "0 0 0 / 0 0 1 / 1 1 1",
    "0 0 0 / 0 0 1 / 0 1 1",
    "0 0 0 / 0 0 1 / 0 0 1",
    "0 0 0 / 0 0 0 / 1 1 1",
    "0 0 0 / 0 0 0 / 0 1 1",
    "0 0 0 / 0 0 0 / 0 0 1",
]

# SHA-256 of json.dumps(rpp_series_bruteforce(YoungDiagram((4, 3, 2, 1)), 12)
# .to_json_obj(), sort_keys=True): the 6948 fillings of total at most 12.
BRUTEFORCE_4321_12_SHA256 = "ac423e7fc1c4cee33fd5bd600ad693715f5ec1cb5ac69df27e2b9d86d80795ee"

# SHA-256 of the texts, one per line, of the 120 instances that the bundled
# corpus's random-properties row draws: verify.run_random_properties(20260817, 120).
RANDOM_ROW_DRAWS_SHA256 = "0740f1fc59006a9484eaf48ff806ee4514d5fd98c7e79019c01ea54be5bf56cb"

# The answer atlas: one SHA-256 per shape (its columns as text) over every
# filling of total at most 5 on the shapes of at most 8 boxes, recorded by
# tests/frozen.py, which says what each digest covers.
ATLAS_SHA256 = {
    "1": "a41a2bb439a7322d6613ddc437d537431afba4eaa3f471deebd85facc1e04047",
    "2": "17d4bec63ff1c0dfdbbc064ad8171afcd09602d2c3c4d08157f04ec321d8a09f",
    "1,1": "ac247584a6760129bcf00ce2e191e52f2300bb84a0ab1c2c214c3c72009f1f3e",
    "3": "fed75746bcd8ddc50668c3b991664daffe9bcfd6cd5763948299f7915adb5c2a",
    "2,1": "deb0df6007a86ecc9868064b11a32284bc598712f49d0f612805a0058d2c1415",
    "1,1,1": "61c57dde7ca71a4a0fadcb28e2cf3c878760f14b5ebb36e83584608509b36eac",
    "4": "c04d67c7976f59f5f2676d9a8f1a2526d486c3a2775c3d1a0788f00fd6c4e99c",
    "3,1": "7cb03f30dc0937c062de0147ea91615492d21b2f62c5182622ae92009826ee78",
    "2,2": "37cc401d3fe734d0c8c90e3aaf3bde55b28c852f1ca7ea33f01f7e44df95a932",
    "2,1,1": "926d26849f9e0cfdf9deb4431d426e6b8ddeea1bca6473d54ebbd9fec26d078a",
    "1,1,1,1": "baead849c56410bae08abc430199d16fc6e9bd2737fea8b13ab801765bff58c7",
    "5": "cb8a61aab5a188ab2a90ffdeeb4eb884de51ab018e0fd0c4231c416a4ffab0cf",
    "4,1": "3e88c151fa5566c1a7c5fa1c9bbf53f6652159fc569403e7c6cab32a7e4eafb0",
    "3,2": "cc8d34b29b5ff6c3485363bebaf0b878d8f51b45969f744a7f1ea48b193a8845",
    "3,1,1": "d6c8c4044ed3ee2435fb06554855d1ee777f03da504d1ba2cae40303534b44b7",
    "2,2,1": "c032850745fef0d423ec2c40fabee98925c767dbae3f8ae2fb0cc2792ef56692",
    "2,1,1,1": "fe086c2c672a577fd8f7aae19b5ac02d6444f5eefcc0c29299310e965f9f8b29",
    "1,1,1,1,1": "bd7725a13f1c0d55621068d4dccbc8e9dd7586615e2d80337e75aa411e879999",
    "6": "88add075ff505a9ac2309f0d816ac263c41a16ab4a11f92aa3ee77e476882c23",
    "5,1": "929ff289e3bd46543b081ac82d20e49feeb2e93b359fe3bc044a77e62b150132",
    "4,2": "2b05eae0dd2c1a6effcb489cb97a95f857530c081f3c23a66297576f10cad0fe",
    "4,1,1": "0060fdce403e7ebfa942bbb186423be1ca82ee26d3ae78934e8ea408207e2d9c",
    "3,3": "9326095a817db44e6833c8e34637c81f7d8f912da0fedada7969e21dda543a14",
    "3,2,1": "c001cfaa5549875b62d827568625658602faefb1bdb23a4a986c65c5c75e693d",
    "3,1,1,1": "651a251119b06293d28daffad6f5cecca16d4f81d92d2a8e9ccff214bc7deca8",
    "2,2,2": "162e1fe87db3f6de21ad3a2adceac441d8a942b3b274468f4db1f2513e919007",
    "2,2,1,1": "65143ee4221a3bfba7e3bd2281d89c337de95cce17e482dc17c040b1345af375",
    "2,1,1,1,1": "343f8913d32e7f682b5ee290311d53d147445d28b6b5bede67ee76d83f337c77",
    "1,1,1,1,1,1": "f35be452bc3c44dc2a041fcc744d021ae7c135015fb04a68d39adbc3dffe9a57",
    "7": "eaebab9e0b34807c3fa9d0d0e735d34bc8c9ef1fd4e938bd0f6be5374b8260c9",
    "6,1": "bf27a9644890dab9b0222e9d81ec7d3b3074c41abe40e7633aa4436a36e3b207",
    "5,2": "350aff99109a7272bff1fbd177aa85fe40bb956f17f491c978ce922ff68d60e1",
    "5,1,1": "613fd5860102c0c693b5ef1966d4c1328e78906f67d817f310945caa870abc45",
    "4,3": "d2d102fc917e79679145f048d040b8b6faa8f118e0a4bb750bdbe99f894d93fd",
    "4,2,1": "2f5605fe48ac17d58837b74ce6a06ecb3ed1975e4db93b425e4584ab418d6c2c",
    "4,1,1,1": "1fd94a595fa96c54cabea7345f4b190f75efc045e8cb336b09142d168955390c",
    "3,3,1": "e5f859012f1dd95485b3c6ad449d4ede1d1f14cb74255ea141a6f180dd4c6be6",
    "3,2,2": "721d4e3062ef2e965f8742cd7ecace1436a4ed88a2f93d739f9bec8074c09ab3",
    "3,2,1,1": "1a09ec43a990e5918bd4e4e49803bc2a12db0c63b726fb3d591796556077ed96",
    "3,1,1,1,1": "a70a8211c099e91f60bbc1cd4779d31f4a3471d78c6601593ba9aa22a13dbc08",
    "2,2,2,1": "04f0e45613d6361c9be9bedbfeb8e1ff7326d1801e4a7b37325d53db68d2bfea",
    "2,2,1,1,1": "a58cd9261dcaec6461bda36aae1b903133c754eca5ed4e1424df8224afb78191",
    "2,1,1,1,1,1": "c10a7964af64a394d8a5904a347cab98a07654aee7147bc6be12aa74e7b28d45",
    "1,1,1,1,1,1,1": "866beea94be0050a48aa7c3b6bcf8550bbdf6ffc697efdc2e1dcab5f9bcae577",
    "8": "87abe7f0a47514673372a85e8a6b9d3a87f78ae0ff59e6ab679f7790153d983d",
    "7,1": "a7617128464723f37e87dd21cb79c2184b40f61d822a84706c8e2761278833d7",
    "6,2": "fb551e180b231d510e3041901bc30d32698f384415514f2eff02f9b4f7d5eeed",
    "6,1,1": "1d1d90fdd687611aa5e073fb10c35741a5e1c6e2422e206a86a76fa33087afa6",
    "5,3": "887bab54fa3e78e955b6f0890ba8646d3a7e4e0bbade4a8d5ceab366f5ed8b9b",
    "5,2,1": "c15faba1473097e4e4958b8a619b088dedda9eea0650d9b602da4362533aa2c1",
    "5,1,1,1": "aaf55db6bd23ba3d380d3f27981d7b5e2a0ab9abe016c9575b198c185b453f78",
    "4,4": "42800a35f8ae1463cdf459114f901372bb4b7fb8daf4740adbee5e689ec51e5f",
    "4,3,1": "862504d49301c4ee622698a33f0b99a6e7a300ffc462571d9a2041002761c6f1",
    "4,2,2": "b1b56bb805ebe4619125225d8423d94ae921e7bbfaca2227aba3f61cade63278",
    "4,2,1,1": "e4b32114c45394352ccfcd3900fc94e87990f052a8c32251fd813ebe580ae0d2",
    "4,1,1,1,1": "2941cda28d78197649b683602624be3a2ce20efa7bb09c9f7b97610f704be396",
    "3,3,2": "08896204c7996c301e659f3db8f6918cc1b63dee9fc8175e6ab5e8019869b803",
    "3,3,1,1": "ae7bdc3d9598c1af0fba8e88de16fe9cda5db9f3af1db8af560b9171110d5ff7",
    "3,2,2,1": "a4de546465380f5761769fea7ef298f17862835184ac7c3834b808e897d430a8",
    "3,2,1,1,1": "72975c782c7aa65f59f5a7247b4df1058933e900c5b880b23b96aa1f35b8b144",
    "3,1,1,1,1,1": "d7e54f7baf93a7e6ba7d3deccc811f9ad5a88eb7fa5353bc17dcc38854b84ac1",
    "2,2,2,2": "494b550660f6a45837b18299381d9a1d0944bbbfc888ba3f356e7c45e8ae8908",
    "2,2,2,1,1": "438de83cb6f9c4bdc52fd500d6e3ef3865cb54e0e67d30156588c7f88cf57352",
    "2,2,1,1,1,1": "755563de3fb3e49427d9286b55c77cbf991ef15f034a7ba488f1df328c983ccc",
    "2,1,1,1,1,1,1": "c9984921faab5c4b5d55ba0ee91eb71fd14120590560640cbb54b59498c25cdc",
    "1,1,1,1,1,1,1,1": "38fa332efb38584ed70038cf26decaaee0e184bb86bc3adbd82dd9a2c4f75324",
}

# The singular band: one SHA-256 per shape over every filling of weight at
# most 5 on the shapes of at most 6 boxes, and the eight 3x3 fillings
# 0 0 a / 0 b 5 / c 5 5 (a, b, c in {2, 3}); recorded by tests/frozen.py.
SINGULAR_BAND_SHA256 = {
    "1": "1406fd63cad9e29ab28421ecfcc0d1db455ce095f7f936f004da6835b3c59c20",
    "2": "98146f3591718d5eb8728446c5c0f7b39131b460b77f45cd8344ed13a69a212c",
    "1,1": "ad92286abff8db6ef6090eecd8b1dc99472234f87cf52b3bd5c92193a40331a2",
    "3": "542566dd04cfa4c2cb28783efde909d57ca018d38442a56357e7b7d0e9a07bc0",
    "2,1": "49b7a14e058321e4bbd255032c4c097c4f0de101b4f805614496c2d141168e74",
    "1,1,1": "da67798af6aee2880bd4bb65ab4b1d857354b96e0de23784803ded2f7afc44a0",
    "4": "091d6a85433d6e10ed234e8a1b3a2e85d3f9c02cb2a23b6754dda5ee36382699",
    "3,1": "4c6444df565087957866fce7ca422a248d5e3fbaeea018784da173568e2512b9",
    "2,2": "b8451b41abd23cc775e6997a5e459b0c1f0779c2c2e145a6dddfae94ccd38965",
    "2,1,1": "cdc357bc4f96f44b6554de2db8d492f03918e24de6cfaafaaf8941ac43ca6602",
    "1,1,1,1": "e6fdd8eefd8084127016700f3d60c4813f49e5484e88859dfe32b158e547a67e",
    "5": "df659860dc4e6bf9ca5209bd42949a97ec2c10ca84d3f2fbc961d596b1dd27aa",
    "4,1": "6067e7104ca2904608c7cc58c6c4916ec405966d29ba73a05045f6ba871bf273",
    "3,2": "6163ba681a0d3525fcf590ff60c8bfe7e844799bffe796f73d42a21724a81055",
    "3,1,1": "afc1899f4bf62b0718ab9cfbe6417cc7a8ae5a2c9bf777e10e34085b08853103",
    "2,2,1": "5b72ab0ee35f807dea4c2084370b30cf58170923263d2dd20296451257165f7b",
    "2,1,1,1": "73110741dd009549c5df3f1426d6de415cb3a8954adad4bf652e1c6013565444",
    "1,1,1,1,1": "5a60db205045f158d2239832777ab826881f05add51a10dc112ac93f550293eb",
    "6": "0db7b5500683a681faa8357d110b9e439c960800574aeaa0c3c0a21ad9cedde0",
    "5,1": "04d2c7a6ca0442e3b46b8418bec78edbcab6e0b7114517bc7c11526a61fcff08",
    "4,2": "698e73627a8f74b32ce33417b802f7772bc1a58cd496d6b3ffc774841038865b",
    "4,1,1": "f21066956f547a8c5f93beb8898ba4269062362ffa8d6e954d4282c8e2e30c97",
    "3,3": "1a60cb729e224c428e62babc965813a095889e06cd2996460e1adf4b397f6c2e",
    "3,2,1": "7a455d8b02f7b2a492574bdb8dc6478801d59e842bdb1d355b305071129b466b",
    "3,1,1,1": "663514ae7501ac6701cd5ca7723f3cf7290bf73faef23fae39f4c49740c29b81",
    "2,2,2": "469635b19b28012ea5d6bc8df6835d1c3f96d0641262b428d84e6fbc7aff18d0",
    "2,2,1,1": "a5d4df40f14f34d497059851251fa8259cda37a7bb98cf583ef2bf6570d6be72",
    "2,1,1,1,1": "6d13823c3c4854a2ef0a0f1491ad30d5950fdaa315215a343c249abd7eed6fe8",
    "1,1,1,1,1,1": "618a5dc3d1f07e02a3ea789dcfd32e73116e5ae244d085af17a64185d40b6650",
    "3,3,3": "cc9aadbb1f3dc2496dabe34083b931f2255ae8898667fb2d9ff92440e975158b",
}

# The CLI byte atlas, printed by tests/frozen.py: per subcommand,
# its argv's 8-hex fingerprints in order.
CLI_DIGESTS = {
    "weight": (
        "39365145 869723f1 5762004e eadd310b 8d3c5ed9 25a8cebf 9bde3767 177b1301 "
        "a959521a 3bf29339 fa99253f e024167e 97f1191b 9ecb700a f6a1386b d7e4e410 "
        "c0c98b58 799d97bd 187acfb6 947ee4a3 010f8104 ca816357 b4715eac 70b849aa"
    ),
    "indicators": (
        "e1cae61f 0fd44c26 0dedb8f6 021a6e55 ce3afbc8 e0eda01f e87ff83b 2f31041b "
        "e3820c43 05bf350a c0563b82 e2d5b48c"
    ),
    "factorizations": (
        "69361cc6 bf0c5960 ab6974d9 92ff2154 57ac591e a5bc2aae 4915c9e3 96fe519e "
        "3f2a7c6c 53b84700 9ea81456 6de813b1"
    ),
    "classify": (
        "c77c8877 403dd8c4 d5fe7514 cb7dde26 c7385212 6aec12c1 614a1348 c167f2f6 "
        "a4159984 e4cce2c2 41b9b90f 090523f5 45e319df 7102dbf0 4e52ec01 5906879b"
    ),
    "equations": (
        "19a8afa8 63aa2a15 0a306733 04366688 f0e6a7ec c57f9589 6db7165a a0caa162 "
        "cbbc0b9d d6adf17c 8352c3d3 bd4cfd77 75a4a911 5bd03cf8 8b917119 93e0b309 "
        "45935260 c45cfed5 946eda4c 6ad35e83 58b75876 171ece46 0fb012db 2370fe6e "
        "fbbdd5ca 0399de2c 76cd82ed 7b6733b4 24a054bd e4a04952 ce1479f6 3d2bbcd2 "
        "22da013a d94a6e90 3160519a 1dfbe69e d934a458 32b52b46 02d2c967 7ba9d472 "
        "d3352f15 54f4fb28 939d02a1 c0758025 eb651b34 83716276 290da7b1 c70f0c35 "
        "8dded984 ebecaf67 e3db408b 8bf81ed7 245028e0 c467f206 cdc7779f 58e0c1c7 "
        "61a930da"
    ),
    "series": (
        "90c040ef b9061c9e f136b1e7 f2bc3b3f 8535373b e60861c5 f3678816 10f3afee "
        "6a0eb305 3d6e7f51 e3097aa8 19cec0b6 74dd3790 99067c42 99843ee1 4db220d4 "
        "c7cf4575 46e20a4b ab1e7d8d da1cd6b4 85ab6ba1 0a472e1f be0a4d66 038b0516 "
        "a20a88f5 a90cbd7a b3bb2db2 ff637dac 71b7f06f"
    ),
    "count-points": (
        "72dc0aa0 a3d811a6 94ea2497 723ea265 57175395 cc514911 2b79a2a2 8d93c832 "
        "9389fcd6 d341c72c de881653 5766bc2f d57b448c e17f32b0 f0a478ac"
    ),
    "verify": (
        "71821540 2db17db0 73cf43c3 99db6934 530e871b 6665c57e ae957db7"
    ),
}
