"""Golden CLI outputs: the sha256 of stdout for pinned runs of each engine subcommand.

The hashes pin every generator matrix, the basis table, the zero-mode
report, the triple relations, the b2- oracle, the Bessel series values
with their term counts, the coherent and cat coefficients, the bicoherent
residual bounds, the quadrature moments and both resolutions of identity
byte for byte.
``verify-all`` is hashed, in CSV and JSON, without its runtime_seconds
column and its total_runtime_seconds line, which are wall-clock times.
Runs in ``EXIT_CODES`` are pinned with their exit code as well.  Outputs
that go through BLAS or LAPACK (norms, inner products, the SVD of the
kernel oracle) are pinned for the numpy build the suite runs on, and the
``--help`` texts, wrapped at 80 columns, for the Python version's argparse.
"""

import contextlib
import hashlib
import io

import pytest

from parafock import cli

GOLDEN = {
    "op-matrix --gen b1+ --p 1.3 --cutoff 5 --format csv":
        "17a3670ea38995150e2217b67b58a8551a2401a991627759f826b1d1071f28ec",
    "op-matrix --gen b1+ --p 1.3 --cutoff 5 --format json":
        "c8a558f34ee717218def7cba8377c121d690066b0ba18c98b37e0f6b2ffaf535",
    "op-matrix --gen b1- --p 1.3 --cutoff 5 --format csv":
        "e1379c2cf3afcee805734a98784b396e9c7fff289ab69fccb7d56138aead708e",
    "op-matrix --gen b1- --p 1.3 --cutoff 5 --format json":
        "d24711377110c3fc6397f327e2468e37f29932ce7bf2a5c104deb1ec90c59309",
    "op-matrix --gen b2+ --p 1.3 --cutoff 5 --format csv":
        "53a8b2987d2e980a8ffe48bec966a77458710d00ec8135ebd56d5288ea1a7f4e",
    "op-matrix --gen b2+ --p 1.3 --cutoff 5 --format json":
        "1ccd5c730c6d43f057a3a88d0eb163320173118c9fddacdfb0fffed595a76426",
    "op-matrix --gen b2- --p 1.3 --cutoff 5 --format csv":
        "7c8abd5dc458027d3a70dd9aad9848d41ae620864ccbe612434bc1bb158ec52a",
    "op-matrix --gen b2- --p 1.3 --cutoff 5 --format json":
        "ea54697e1e2128a376b87442ab740a5724e2537af36a701c53eb3f5cbee89fe2",
    "op-matrix --gen h1 --p 1.3 --cutoff 5 --format csv":
        "b421f19ff3f81c160ef7cb74dee211e75274722588ac5105ab338080f7893d59",
    "op-matrix --gen h1 --p 1.3 --cutoff 5 --format json":
        "dba4c43feb5721180529cb057601a9378e772e92b51bcc17c46bc1bc083746fc",
    "op-matrix --gen h2 --p 1.3 --cutoff 5 --format csv":
        "a27a3379180579767b3e0d9e82c4bd2528d3e9ea7d8a2a64538024a02ab71b0b",
    "op-matrix --gen h2 --p 1.3 --cutoff 5 --format json":
        "d7aba1d3a0bef7404261f2f9b6c61d00e100b2758e722bb0ef7fb4d8de53d657",
    "op-matrix --gen b1+ --p 2 --cutoff 4 --format csv":
        "aa765e9a4a54437c563df459ca7ab209c0c76635ade3fb0b549ce38b1d2f0637",
    "op-matrix --gen b1+ --p 2 --cutoff 4 --format json":
        "9748349fd102a96f835d9edbd86851fe24064bc51db80a84d338f499fe8ef04c",
    "op-matrix --gen b1- --p 2 --cutoff 4 --format csv":
        "bb05ae89dde77a6f7249c0db9825639eaeaf2fd289759ed0f14a479d447b7888",
    "op-matrix --gen b1- --p 2 --cutoff 4 --format json":
        "aefdcffd72096de9c0ac67cde41d08c3ac72885bd695343d765111804171008c",
    "op-matrix --gen b2+ --p 2 --cutoff 4 --format csv":
        "f4acad516417042d11753c95f800b0415d675efd43d9be38c444d3db4708cd13",
    "op-matrix --gen b2+ --p 2 --cutoff 4 --format json":
        "45bdbcf6e57f6a058a202a3222a2c3de511629e02c8d8ad3fe873a3ae79ac086",
    "op-matrix --gen b2- --p 2 --cutoff 4 --format csv":
        "4673276aa6940a256b980f56e16b7494c36df9b534748d258021622c81a817b9",
    "op-matrix --gen b2- --p 2 --cutoff 4 --format json":
        "e3c1337b4061a7dbe471a1b2fa6b51a5722b7fbd436de24dbccb75d17e653ee4",
    "op-matrix --gen h1 --p 2 --cutoff 4 --format csv":
        "c20d35c766edf4ab0851bc8aafc04fa5d4be35bce22f95718b4bb1355241ed7a",
    "op-matrix --gen h1 --p 2 --cutoff 4 --format json":
        "83526f745f21196ff548d9b690250a020e6d9e6e97d6eba890d16ce31b267de0",
    "op-matrix --gen h2 --p 2 --cutoff 4 --format csv":
        "1e6952dddb4e838fdcdbb40e4915d9fa3c7bac19f2ba74cddc54e86bee2575bd",
    "op-matrix --gen h2 --p 2 --cutoff 4 --format json":
        "259cb9ed029a7781ca569dc1392423b382e8b881a02d5ad960ef99f3a57f9dd7",
    "op-matrix --gen b1+ --p 2.7 --cutoff 6 --format csv":
        "a51145afaf6ca9a671bd68e8282429651a14fa32e5462c36cdd19c258d542bf0",
    "op-matrix --gen b1+ --p 2.7 --cutoff 6 --format json":
        "3a8928fdcf80be03b38c29b8b77648e876a5944e0a4a7ea6633e1f6e9fd5902a",
    "op-matrix --gen b1- --p 2.7 --cutoff 6 --format csv":
        "ab53277dc26d3143717de0413a6367b8c462b7b55f9f0f4e2ff06234f774c731",
    "op-matrix --gen b1- --p 2.7 --cutoff 6 --format json":
        "324179b35848dd9ce41dc80936db23f9603a9790c3474d77629bc5fd38cfc35e",
    "op-matrix --gen b2+ --p 2.7 --cutoff 6 --format csv":
        "d85c8c90b569eaccfbe0b304820d41fed9379cd1d57696364f2aff7c9f7a5677",
    "op-matrix --gen b2+ --p 2.7 --cutoff 6 --format json":
        "17d08b37285a973bb599d5fb3f4c5ad9c604ca4e832deab09e038a4b320a9505",
    "op-matrix --gen b2- --p 2.7 --cutoff 6 --format csv":
        "0cc7f329e6eca7cecef32b2f5c9ee78d72187d3899c84820c1f09d67dbd2dcb1",
    "op-matrix --gen b2- --p 2.7 --cutoff 6 --format json":
        "459ac55ea166e87046557e7f3e6ff62c1e3dad94218e867e402db8e418530a59",
    "op-matrix --gen h1 --p 2.7 --cutoff 6 --format csv":
        "72acf1bbcf5e02b9aac4d9568fd2569b6a8aa3412baa86d65bc3c4b53b844e14",
    "op-matrix --gen h1 --p 2.7 --cutoff 6 --format json":
        "d3e26c3a16a0e95cbb01d18931ea7b008c4389f444b473c28656c2de701c11b8",
    "op-matrix --gen h2 --p 2.7 --cutoff 6 --format csv":
        "0cdddbc5e6641e89b59dc336a15337ece037dc68f231f5cca371c89f6ab17ca2",
    "op-matrix --gen h2 --p 2.7 --cutoff 6 --format json":
        "2b684e7dc369d560bc3d7c73be3abe4e571a185cb313dfde85a442509f2c6df4",
    "basis --p 2.7 --cutoff 6":
        "9ad2a1825367bec806b10d978cc8178264c1e88195491d870d6ed4b991026221",
    "basis --p 1.3 --cutoff 3 --format json":
        "3778bde796ea9d2b6fb78ae48cbb44fb9f535f7c331dc65ad0016fa6f5cdf80e",
    "zeromodes --p 2.5 --j 2 --k 4":
        "ca212d38644d4e8d63205143dd7f28d9b13fd96a1024fa811b7014d595ce809e",
    "zeromodes --p 3 --j 1 --k 1 --format json":
        "e8b1f06461ef47b975b099162e8d8a6e60d1d65b28d3f739fe5e8c2f4347d9d6",
    # the zero-mode report at cutoff 200, the largest basis the envelope allows
    "zeromodes --p 2.5 --j 100 --k 100 --format csv":
        "57d083671fbfee8418cbf0e2c5724f78e5f288f377b44d40fc7d33d6c3097300",
    "zeromodes --p 2.5 --j 100 --k 100 --format json":
        "f12338f3d3256ada6e5478a1f2c95cf6fd37a76428263812c41b29cc197638ae",
    "zeromodes --p 2.5 --j 0 --k 200 --format csv":
        "2a84aabdb0c367d98d65323a1a48b369ed426d1568bd8af6a3585afed7bb2936",
    "zeromodes --p 2.5 --j 0 --k 200 --format json":
        "204a8b9564747bf4b24078dbeade0d4a4c13eafc4a90a8b36dd2a37602a781ac",
    "verify-triple --p 1.3 --cutoff 8":
        "405642a4f83398ee9fa0511c4c30fcecd9cb013165030cb5c81ce5236bbe8b46",
    "verify-triple --p 2.0 --cutoff 8":
        "6419dfcefd5e246c2ca6d8725655560e0ddb26183173470d81029d18ae17c5ae",
    "verify-triple --p 2.5 --cutoff 8":
        "3634bdd42bbb693a30f9dcbb062ffecedc40ba040dc5733f20e65e93ce39d56b",
    "verify-triple --p 3.0 --cutoff 8":
        "048834e5c99fb9518ec91f0551cba015d78bd40765d200d416e910edd42b3cdb",
    "verify-triple --p 4.7 --cutoff 8":
        "934b6e41f60ffa16231bd9597efa3bfce4639a70aee78aad53fee4000639c31d",
    "verify-triple --p 2.5 --cutoff 24":
        "8210bcd1b1fd96674720ffb4eb2f8f56d9670ddd16e3f6c65e881be4575f3b3f",
    "b2-elements --p 2.5 --j 1 --k 2 --nmax 57 --alpha 0.7,0.2 --alpha-prime 0.3,-0.5":
        "7c2f9667ca97f8ae8507f42215cfa8da50dfb66f2cb40eb16654c168bb5da59c",
    "bessel --kind k --nu 0 --x 50 --format csv":
        "8c00ca6c7468c482ac97698d6a5d0b0b36a6cafb3c8b4926f055fc5641fa4ef2",
    "bessel --kind k --nu 0 --x 50 --format json":
        "b1ad2f10a3c6364d49cf226902cd18b770e2b81c082e576a52980943e16fe929",
    "bessel --kind k --nu 0 --x 0.1 --format csv":
        "df92cebc2546e992fe04a98e2992509db8ec6d19535531e1ded96d45ad7f4073",
    "bessel --kind k --nu 0 --x 0.1 --format json":
        "9d1732c898036fcbac706bf63dd3fe8ba0b76cc199a306197676213ca6d00376",
    "bessel --kind k --nu 3 --x 0.1 --format csv":
        "0c729012c245abb406021659312e0dcf7d3e1da12c0c4b77f4cf1daa2f0aac5f",
    "bessel --kind k --nu 3 --x 0.1 --format json":
        "1261f3b516fb8ac3584a9568f6127596b5ae13018b7a272f10e4ef85d1a23151",
    "bessel --kind k --nu 3 --x 20 --format csv":
        "4e2ca4d1455851542f0e7d56fb69f9352b85e8713e98b7be04006c8070b4c9c1",
    "bessel --kind k --nu 3 --x 20 --format json":
        "c220ab7988147d6564cddf13d01b244fdbbabf3d4aa2c3c7eb4c979f0d83b29c",
    "bessel --kind k --nu 60 --x 0.1 --format csv":
        "912da4db62d98c20660d26bcb5f95fb0508740dc49cbecfa6de5ca8b6f00283e",
    "bessel --kind k --nu 60 --x 0.1 --format json":
        "5a057432fd9c539b24dc1a1a2ff191fe694f0a52969ae56bbd26a4b922c1f745",
    "bessel --kind k --nu 60 --x 50 --format csv":
        "a70b8bc4085e20f45ae4c59bb4ef135378db8683d3cc3bc5b3d8c3f9b120e2f9",
    "bessel --kind k --nu 60 --x 50 --format json":
        "d6b19e2b743e6bb115d29f7eb16b34085ba46424be62de8a3f60a224292c2b7f",
    "bessel --kind k --nu 2.000005 --x 5 --format csv":
        "c89b01bd66e74640678b23b628e718e7d438b92f7e32074e3ed838a8bd26e87e",
    "bessel --kind k --nu 2.000005 --x 5 --format json":
        "af70e52c9b7e1781075889fd9306a327b9152b0ddc8aada2f505e16551ee52a0",
    "bessel --kind k --nu 2.000005 --x 50 --format csv":
        "d7cab90247e25961b79256fe68d707c5bf83fa0d0c39d9340a7c2dae3fc06dab",
    "bessel --kind k --nu 2.000005 --x 50 --format json":
        "e813e553afcb3807b6100ebce40a88783b75f859c561ad53aaba6fe8e1886a39",
    "bessel --kind k --nu 0.3 --x 1 --format csv":
        "0b72a9555bf13ead4ecd6d7c00b15b2df71b65ca7cba03431f691e2ae2ba9b5d",
    "bessel --kind k --nu 0.3 --x 1 --format json":
        "73b598b1a9831f254378f3dd6e1e1499d69dfab80db8b48c46897ac11e84eeb4",
    "bessel --kind k --nu 12.7 --x 35 --format csv":
        "d35917f839aa0c73182df49eccfd76b758db1614585e2312e5a0aceec7d94a59",
    "bessel --kind k --nu 12.7 --x 35 --format json":
        "8091954c1bae86bd55368f0199f61b7c16b01625bb6744093646b3ca8aa65cd7",
    "bessel --kind k --nu 59.5 --x 50 --format csv":
        "c02faf7a0d23cd162f76e3dc6b2db1a08432f33a23e86149b9f6b1df89357f7e",
    "bessel --kind k --nu 59.5 --x 50 --format json":
        "6bbe4edccf778499047c1db8334f124a79e50169d914c3f2f5b94c6cf476d1be",
    "bessel --kind k --nu 59.5 --x 0.1 --format csv":
        "1a6a65f81169dc1daaef9d5fec83377a2a559f8afe5f2252987c3a3184344d37",
    "bessel --kind k --nu 59.5 --x 0.1 --format json":
        "a178a9173c0debb88ef8dff87705ac076ff06f7ee46ec61b2f6ae5d3c149e21a",
    "bessel --kind i --nu 0 --x 0.1 --format csv":
        "bf697aa76c35f856bdb4067f284da578d80917814ef8d193f4c11baf3c65e2b6",
    "bessel --kind i --nu 0 --x 0.1 --format json":
        "23d074b0d236955acceb39fafe01151ddaec0a3cd658768ef87dfdeb0cfede30",
    "bessel --kind i --nu 3 --x 20 --format csv":
        "e7f8b94106980c827c5a9bb86318e693655078ed13ceb3534af9598e84a6b5d2",
    "bessel --kind i --nu 3 --x 20 --format json":
        "8cbd649448b0bb50d649a6ac44e80d16403743c50a241c203550d3db5d8d529e",
    "bessel --kind i --nu 12.7 --x 50 --format csv":
        "db061d757c752b6a7cd4e9b738918fda8e5e03a00abbc7d3e8661c176dfda5aa",
    "bessel --kind i --nu 12.7 --x 50 --format json":
        "9a4da21b6730e039c072e2c759205b73f9d32f1874f5b631f1b873cdc6202369",
    "bessel --kind i --nu 59.5 --x 1 --format csv":
        "6fa20cb68ae55f020e426879d5256e5151c61daaf4b8c911d1b22fe789f63f13",
    "bessel --kind i --nu 59.5 --x 1 --format json":
        "5b4c752729136065f98b1e616e27da8dea75926aa0c5c7e9102638e0177a20b3",
    "coherent --p 2.5 --j 1 --k 2 --alpha 0.7,0.2 --format csv":
        "6bfa25dafd55f042a371eb6370a0550e3aec31041f7aee0276b8f667c599c676",
    "coherent --p 2.5 --j 1 --k 2 --alpha 0.7,0.2 --format json":
        "6ef96ba12354b6a603eaae5d96015eccb1fabdd1df1c0aab262580043cfff49b",
    "coherent --p 2.5 --j 1 --k 2 --alpha 0.7,0.2 --nmax 30 --format csv":
        "39107140721e49b9e25930506949a6e8b9ea5443b99973b8e766d05ea6a5bc82",
    "coherent --p 2.5 --j 1 --k 2 --alpha 0.7,0.2 --nmax 30 --format json":
        "7c476ecc4f70baefd1e416d88563dc8900d145e550d1ed1a2dea5e2d4f46d844",
    "coherent --p 3 --j 0 --k 1 --alpha 1.5,-0.5 --cat + --format csv":
        "c7629d32dc5408981c2bc76ab71f32bfc6fd0282fec69e8fb7b734495bf1402f",
    "coherent --p 3 --j 0 --k 1 --alpha 1.5,-0.5 --cat + --format json":
        "432edda9846580808dea2fff176144e1643dc8738450c264b857fa1c6f87f0b7",
    "coherent --p 3 --j 0 --k 1 --alpha 1.5,-0.5 --cat - --nmax 40 --format csv":
        "4cd1f57d0af38849c51434fa99650f27a0cda96384eec04e23b67329332221cf",
    "coherent --p 3 --j 0 --k 1 --alpha 1.5,-0.5 --cat - --nmax 40 --format json":
        "c18807cfbfea8c9289ec0790606d9b14559ed1c56c8d87638db85e6bb24643d4",
    "coherent --p 1.3 --j 2 --k 3 --alpha 2,1 --normalized --format csv":
        "1e596b9708a52c76d297b378b1841c80e5c76464f832e9c0d9e245c1f4d0c767",
    "coherent --p 1.3 --j 2 --k 3 --alpha 2,1 --normalized --format json":
        "10de91b8ea808cb18f9cf9bc594721f68b5d41f2b0750a2b59e890d081e68c1a",
    "coherent --p 1.3 --j 2 --k 3 --alpha 2,1 --normalized --nmax 24 --format csv":
        "fb250a4c1079420d3e22fc79844df25f670cff9473755c1d7464b60417320810",
    "coherent --p 1.3 --j 2 --k 3 --alpha 2,1 --normalized --nmax 24 --format json":
        "d1cb55e2b392596b5098c75c1c9efd05e43cb9146f3686e708b33d8160dbf066",
    "bicoherent --p 2.5 --j 0 --l 1 --alpha 1.2,0 --beta 1.4,0 --format csv":
        "3fb5f6a5fece65e21bf286c6c706c3d3ddbfeb79b96d8b8ed421f94ff041a51b",
    "bicoherent --p 2.5 --j 0 --l 1 --alpha 1.2,0 --beta 1.4,0 --format json":
        "e40757790114ba6ee52805772c2158006bd835289e73ca1e7fa602e549018672",
    "bicoherent --p 3 --j 1 --l 1 --alpha 0.9,0.9 --beta 0,1.5 --kmax 20 --format csv":
        "ece6662fba404a34e1bfdff35650baf55de8d0c80683edb54972d3142751b9a3",
    "bicoherent --p 3 --j 1 --l 1 --alpha 0.9,0.9 --beta 0,1.5 --kmax 20 --format json":
        "4d610085fc7a1be7324c8b47ab7c25a2a7b8c9c80f38d3fc450b8139bfd08023",
    "moments --p 2.5 --j 0 --kind I --format csv":
        "8f673265720f0b40ca5547e589a66d13af0427b103c7722a512241b2843ed119",
    "moments --p 2.5 --j 0 --kind I --format json":
        "a582426f13c249e9fdf3c3cb1d67cd3a4348c74e431f610f7e9f72fa2eebea0c",
    "moments --p 1.3 --j 2 --kind II --nmax 8 --format csv":
        "087966e768eeb23e1dcf9b63f41ba0bde8e89649bb5d7bf15bd484285adcf30c",
    "moments --p 1.3 --j 2 --kind II --nmax 8 --format json":
        "530980791386a57d16815171a0107dfefcff7b6fd851a7de4a27d660d946beff",
    "resolution --p 2.5 --j 1 --format csv":
        "feea2c81d26c55b08a0766920354681a1f784b7276dfa1f24de3853818115062",
    "resolution --p 2.5 --j 1 --format json":
        "f6541ba8575ca980f2351706a2b2cafcb55651e9c948a4add6bb3f3a10d45378",
    "resolution --p 1.3 --j 0 --mode cat --ncheck 16 --format csv":
        "06d22cb0a9fc66dbd1aa9ee3f3bb82fd42ec7a350b01f99e187cc29668ffde1c",
    "resolution --p 1.3 --j 0 --mode cat --ncheck 16 --format json":
        "d42e720ee72d3d30cdf920056be730b5ca63c97dbc5202f107c6046c0253a74d",
    # the corners of the quadrature envelope: q = 12 and p just above 1, at the largest n
    "moments --p 24 --j 0 --kind II --nmax 8 --format csv":
        "69efa580e42e7d841dc457ee2aa16f7b88dc610e3c6bb46cb21ab27bcb7a6447",
    "moments --p 24 --j 0 --kind II --nmax 8 --format json":
        "7b9923d8c67effb388e3e6413ec0a92adc7596000af2f9228b3b5a9cc966f9f7",
    "moments --p 1.0000001 --j 0 --kind I --nmax 8 --format csv":
        "c4bb481490069ae44165ef141cd8e491125d9248a45480811900b05e37e6c395",
    "moments --p 1.0000001 --j 0 --kind I --nmax 8 --format json":
        "40986a78a8c51f979bd71c2e9f341fb8c9f7b02370b124cd17731db0544fb036",
    "resolution --p 24 --j 0 --ncheck 16 --format csv":
        "03833baf2cd09ff643e16a8cafd37ac845a74bb6bd12ad3477bfd2e6f070538b",
    "resolution --p 24 --j 0 --ncheck 16 --format json":
        "c8495e12d4c1e58ef5d82ebbb19744570e803405c31204cbc0d05fed0b926911",
    "resolution --p 1.0000001 --j 0 --mode cat --ncheck 16 --format csv":
        "3b42b2b3f3336f8fd2714c7513211beb5a41ea6b213a6b136a540be21d78c7ce",
    "resolution --p 1.0000001 --j 0 --mode cat --ncheck 16 --format json":
        "26dd3385c42da32267060983a2f099b65e371d85e19650fc0bf361c70ddca8df",
    # an empty table, and two verifications above their tolerance (exit 1)
    "op-matrix --gen b1- --p 2.5 --cutoff 0 --format csv":
        "7abd86373e4a9eeadcf8d8d6906ac4fad3e388540d85156b9fc4e8eb35747cec",
    "op-matrix --gen b1- --p 2.5 --cutoff 0 --format json":
        "619388cedfb7fe33461718441640e7b78a0fd4180c33c40824278cad1253dc8c",
    "verify-triple --p 2.5 --cutoff 8 --tol 1e-20 --format csv":
        "26f05bb38970bb6f068e85959087e936e19732ed705ba960d68f281c9fec9198",
    "verify-triple --p 2.5 --cutoff 8 --tol 1e-20 --format json":
        "da2e438ef5ed7e460a8818649d7cffb26aa75f7bcbc6af43977a55c735938b37",
    "resolution --p 2.5 --j 1 --tol 1e-300 --format csv":
        "15ec3bb45a26b0a565253b480161c88e402f4ccf6e3d53f25f7edc60ac308ce1",
    "resolution --p 2.5 --j 1 --tol 1e-300 --format json":
        "55f3daa121ff5c7e1baff656a091517ccbf0b2d464d313c8fa337fe1cbe019ff",
    "verify-all":
        "a5ab2e93f9bd4f079a3db2ad4ea25fdad4dd0848687bc4953656990982f6f1f6",
    "verify-all --format json":
        "cfe6ff04ff784d47e0ec7a128d36ae44feeaa776a217e9ff2845ba212052f542",
    # the help of the program and of every subcommand, formatted for 80 columns
    "--help":
        "3bb217f751ce38274c386c5a2bc82263b684486c99e0fcdf6d1dff0b8b55e31e",
    "basis --help":
        "749a337d6e1a25135bc104fe2237ec04e0f8e898d7ebbf35595e3ea8571faca5",
    "op-matrix --help":
        "8f17eec59044a6c5c66f2d3b7ece7db41980c48b5859dfbdaaf6863cdb2af6f9",
    "verify-triple --help":
        "a1bb6cc9f5cf73d809a7577a8d3b5ebe6bb0e95c9e6092f20dbb3cef6c02d333",
    "zeromodes --help":
        "391e94cb3582f829f4ee1bdd111aa4c78c50b8ab9390c2cc0216811fdf77abbe",
    "coherent --help":
        "719249444f459885a41cbe16f03792206091ca5ebb1995b2ae217af9712c3a9a",
    "b2-elements --help":
        "74aee7972df7d61bfeb50b376db1d27c595c2f76504674fe5619802860bd8af2",
    "bicoherent --help":
        "2dc6d45b1d57a5399aef0b71fdeae1b6d3b0fec2e755ff256fc32759ad50cf14",
    "bessel --help":
        "9c3a4616b6a6678d3d5526df45121ec17f417f50c6ccaff99772224aba324973",
    "moments --help":
        "5737ca0d5608522d0261ad3d31047c77705910d206071f9984aa87bb10c30891",
    "resolution --help":
        "96669c56596a75271c2155674ea692db8c58a1ba9018783a435793bde04261ca",
    "verify-all --help":
        "1790a0d2344e4f0bd3398bec69f7710a9bb81c154d1d9cc3b87b4e0c37bb4dcd",
}

# runs that exit 1 because a verification is above its tolerance; every other run exits 0
EXIT_CODES = {
    "verify-triple --p 2.5 --cutoff 8 --tol 1e-20 --format csv": 1,
    "verify-triple --p 2.5 --cutoff 8 --tol 1e-20 --format json": 1,
    "resolution --p 2.5 --j 1 --tol 1e-300 --format csv": 1,
    "resolution --p 2.5 --j 1 --tol 1e-300 --format json": 1,
}


def _strip_runtimes(text):
    lines = []
    for line in text.splitlines(keepends=True):
        if line.startswith("# total_runtime_seconds="):
            continue
        if not line.startswith(("#", "name,")):
            # name,passed,max_deviation,tolerance,runtime_seconds,detail
            fields = line.split(",", 5)
            line = ",".join(fields[:4] + fields[5:])
        lines.append(line)
    return "".join(lines)


def _strip_json_runtimes(text):
    """The JSON form of _strip_runtimes: drop each row's fifth element and the total line."""
    lines = []
    position = 0
    for line in text.splitlines(keepends=True):
        if line.strip() == "[":
            position = 0
        elif line.startswith(" " * 8) and not line.startswith(" " * 9):
            # one element of a data row; the fifth is runtime_seconds
            position += 1
            if position == 5:
                continue
        if '"total_runtime_seconds": ' in line:
            continue
        lines.append(line)
    return "".join(lines)


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_is_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal width
    argv = command.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == EXIT_CODES.get(command, 0)
    text = out.getvalue()
    if argv[0] == "verify-all":
        text = _strip_json_runtimes(text) if "json" in argv else _strip_runtimes(text)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[command]
